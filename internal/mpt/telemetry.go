package mpt

import (
	"mptwino/internal/telemetry"
)

// Telemetry for the functional MPT engine. The engine has no cycle clock —
// it is the executable specification the timing simulator prices — so its
// trace timeline uses the deterministic logical clock every replay shares:
// the training-step index. Everything here runs on the engine's sequential
// driver path (the parallel fan-outs live below it: each pass's phased
// fan-out folds its traffic tallies in cluster order before returning), so
// emission order is schedule-independent by construction.

// netTel holds a Net's resolved telemetry handles (zero value = disabled).
type netTel struct {
	scatter     *telemetry.Counter
	scatterRaw  *telemetry.Counter
	gather      *telemetry.Counter
	predict     *telemetry.Counter
	collective  *telemetry.Counter
	skipped     *telemetry.Counter
	total       *telemetry.Counter
	steps       *telemetry.Counter
	checkpoints *telemetry.Counter
	restores    *telemetry.Counter
	reconfigs   *telemetry.Counter

	rebalances     *telemetry.Counter
	rebalanceMoved *telemetry.Counter
	imbalance      *telemetry.Gauge

	tracer *telemetry.Tracer

	step int64   // logical clock: completed training steps
	last Traffic // traffic totals at the previous step boundary
}

// Instrument attaches a metrics registry and/or tracer to the network.
// Pass nil for either to leave it disabled.
//
// Counters: mpt.scatter_bytes / mpt.scatter_raw_bytes (their ratio is the
// zero-skip compression ratio), mpt.gather_bytes, mpt.predict_bytes,
// mpt.collective_bytes (ring reduce+broadcast volume), mpt.skipped_tiles /
// mpt.total_tiles (the activation-prediction gather-skip rate), mpt.steps,
// mpt.checkpoints, mpt.restores, mpt.reconfigs, mpt.rebalances, and
// mpt.rebalance_moved_bytes (activation bytes migrated by load-aware
// re-sharding). The mpt.imbalance_permille gauge holds the residual share
// spread after the latest Rebalance.
//
// Trace events land in the telemetry.PIDMPT lane with the training-step
// index as the timestamp: one counter-sample series ("traffic") of the
// per-step scatter/gather/predict/collective volumes, plus instant events
// for checkpoint, restore, and reconfigure.
func (n *Net) Instrument(reg *telemetry.Registry, tr *telemetry.Tracer) {
	n.tel = netTel{
		scatter:     reg.Counter("mpt.scatter_bytes"),
		scatterRaw:  reg.Counter("mpt.scatter_raw_bytes"),
		gather:      reg.Counter("mpt.gather_bytes"),
		predict:     reg.Counter("mpt.predict_bytes"),
		collective:  reg.Counter("mpt.collective_bytes"),
		skipped:     reg.Counter("mpt.skipped_tiles"),
		total:       reg.Counter("mpt.total_tiles"),
		steps:       reg.Counter("mpt.steps"),
		checkpoints: reg.Counter("mpt.checkpoints"),
		restores:    reg.Counter("mpt.restores"),
		reconfigs:   reg.Counter("mpt.reconfigs"),

		rebalances:     reg.Counter("mpt.rebalances"),
		rebalanceMoved: reg.Counter("mpt.rebalance_moved_bytes"),
		imbalance:      reg.Gauge("mpt.imbalance_permille"),

		tracer: tr,
	}
	tr.NameProcess(telemetry.PIDMPT, "mpt")
	tr.NameThread(telemetry.PIDMPT, 0, "training steps")
}

// recordStep closes one training step: it mirrors the step's traffic delta
// into the counters and returns it, with whether a tracer wants the step
// emitted (traceStep).
func (n *Net) recordStep() (d Traffic, trace bool) {
	t := &n.tel
	trace = t.tracer.Enabled()
	if t.steps == nil && !trace {
		return d, false
	}
	cur := n.TotalTraffic()
	d = Traffic{
		ScatterBytes:    cur.ScatterBytes - t.last.ScatterBytes,
		ScatterRawBytes: cur.ScatterRawBytes - t.last.ScatterRawBytes,
		GatherBytes:     cur.GatherBytes - t.last.GatherBytes,
		PredictBytes:    cur.PredictBytes - t.last.PredictBytes,
		CollectiveBytes: cur.CollectiveBytes - t.last.CollectiveBytes,
		SkippedTiles:    cur.SkippedTiles - t.last.SkippedTiles,
		TotalTiles:      cur.TotalTiles - t.last.TotalTiles,
	}
	t.last = cur
	t.step++
	t.steps.Inc()
	t.scatter.Add(d.ScatterBytes)
	t.scatterRaw.Add(d.ScatterRawBytes)
	t.gather.Add(d.GatherBytes)
	t.predict.Add(d.PredictBytes)
	t.collective.Add(d.CollectiveBytes)
	t.skipped.Add(d.SkippedTiles)
	t.total.Add(d.TotalTiles)
	return d, trace
}

// traceStep emits the step recordStep closed, with its traffic delta d.
func (n *Net) traceStep(d Traffic) {
	t := &n.tel
	// One span per training step on the logical clock, so the MPT lane
	// has a chainable timeline for traceview's critical path (the
	// functional engine has no cycle model — a step is one unit).
	t.tracer.Span(telemetry.PIDMPT, 0, "step", "mpt.step", t.step-1, 1, map[string]any{
		"tv": "phase", "step": t.step,
	})
	t.tracer.CounterSample(telemetry.PIDMPT, 0, "traffic", t.step, map[string]any{
		"scatter_bytes": d.ScatterBytes, "scatter_raw_bytes": d.ScatterRawBytes,
		"gather_bytes":  d.GatherBytes,
		"predict_bytes": d.PredictBytes, "collective_bytes": d.CollectiveBytes,
	})
	if d.TotalTiles > 0 {
		t.tracer.CounterSample(telemetry.PIDMPT, 0, "gather_skip", t.step, map[string]any{
			"skipped": d.SkippedTiles, "gathered": d.TotalTiles - d.SkippedTiles,
		})
	}
}

// event emits one lifecycle instant (checkpoint/restore/reconfigure) at
// the current logical step.
func (n *Net) event(name string, args map[string]any) {
	if n.tel.tracer.Enabled() {
		if args == nil {
			args = map[string]any{}
		}
		args["tv"] = "overhead"
		n.tel.tracer.Instant(telemetry.PIDMPT, 0, name, "mpt.recovery", n.tel.step, args)
	}
}
