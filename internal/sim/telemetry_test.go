package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"mptwino/internal/model"
	"mptwino/internal/telemetry"
)

// telemetryGolden is the SHA-256 of the Chrome trace bytes of
// TestTelemetryDeterministicAcrossWorkers's run. It holds the menu
// instants, the per-config thread rows and the recovery span byte for
// byte; a change to how a config resolves its strategies that moves any of
// them changes it.
const telemetryGolden = "590e02164cc6bd21db1039a01c5c9457dd6fb91a1b4f769ceb3e14b2b692844a"

// TestTelemetryDeterministicAcrossWorkers runs the simulator's record of a
// run — a Table IV sweep plus a fault-recovery run, tracer attached — at
// host worker counts {1, 2, 8} and asserts the results and the exported
// Chrome trace bytes are identical, and that the trace hashes to
// telemetryGolden. Spans are emitted only from the index-ordered assembly
// fold, so any divergence between worker counts means someone recorded
// schedule-dependent state.
func TestTelemetryDeterministicAcrossWorkers(t *testing.T) {
	net := model.VGG16()
	cfgs := AllConfigs()

	type record struct {
		sweep    []NetworkResult
		recovery RecoveryResult
		trace    telemetry.Trace
		bytes    []byte
	}
	run := func(workers int) record {
		t.Helper()
		tr := telemetry.NewTracer()
		s := DefaultSystem()
		s.Parallel = workers
		s.Trace = tr
		var r record
		r.sweep = s.Sweep(net, cfgs)
		var err error
		if r.recovery, err = s.SimulateNetworkWithFailure(net, WMpFull, []int{3, 17}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		r.trace, r.bytes = tr.Export(), buf.Bytes()
		return r
	}

	ref := run(1)

	// Sanity: the sweep returns one result per config, each with one
	// layer result per layer, and the recovery run adds one reconfigure
	// span.
	if len(ref.sweep) != len(cfgs) {
		t.Fatalf("Sweep returned %d results for %d configs", len(ref.sweep), len(cfgs))
	}
	for i, res := range ref.sweep {
		if len(res.Layers) != len(net.Layers) {
			t.Errorf("config %s: %d layer results, want %d", cfgs[i], len(res.Layers), len(net.Layers))
		}
	}
	reconfigs := 0
	for _, ev := range ref.trace.TraceEvents {
		if ev.Ph == "X" && ev.Name == "reconfigure" {
			reconfigs++
		}
	}
	if reconfigs != 1 {
		t.Errorf("trace holds %d reconfigure spans, want 1", reconfigs)
	}
	sum := sha256.Sum256(ref.bytes)
	if got := hex.EncodeToString(sum[:]); got != telemetryGolden {
		t.Errorf("trace digest %s, want %s", got, telemetryGolden)
	}

	for _, workers := range []int{2, 8} {
		got := run(workers)
		if !reflect.DeepEqual(ref.sweep, got.sweep) || !reflect.DeepEqual(ref.recovery, got.recovery) {
			t.Errorf("workers=%d: results differ from workers=1", workers)
		}
		if !bytes.Equal(ref.bytes, got.bytes) {
			t.Errorf("workers=%d: trace bytes differ from workers=1 (%d vs %d bytes)",
				workers, len(ref.bytes), len(got.bytes))
		}
	}
}
