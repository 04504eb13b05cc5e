package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"mptwino/internal/model"
	"mptwino/internal/parallel"
	"mptwino/internal/telemetry"
)

// telemetryGolden is the SHA-256 of the metrics JSON followed by the
// Chrome trace bytes of TestTelemetryDeterministicAcrossWorkers's run. It
// holds the menu instants, the per-config thread rows and every counter
// byte for byte; a change to how a config resolves its strategies that
// moves any of them changes it.
const telemetryGolden = "4e172c4b62e801928a9cfe78abe64ffa24169c29426d18aad539310ac3910859"

// TestTelemetryDeterministicAcrossWorkers runs the full telemetry surface
// of the simulator — a Table IV sweep plus a fault-recovery run, counters
// and tracer attached — at host worker counts {1, 2, 8} and asserts the
// metrics snapshot and the exported Chrome trace bytes are identical, and
// that they hash to telemetryGolden. Counters are atomic sums of
// schedule-invariant quantities and spans are emitted only from the
// index-ordered assembly fold, so any divergence between worker counts
// means someone recorded schedule-dependent state.
func TestTelemetryDeterministicAcrossWorkers(t *testing.T) {
	net := model.VGG16()
	cfgs := AllConfigs()

	run := func(workers int) (map[string]int64, []byte, string) {
		t.Helper()
		reg := telemetry.NewRegistry()
		tr := telemetry.NewTracer()
		parallel.Attach(reg)
		defer parallel.Attach(nil)

		s := DefaultSystem()
		s.Parallel = workers
		s.Metrics = reg
		s.Trace = tr
		s.Sweep(net, cfgs)
		if _, err := s.SimulateNetworkWithFailure(net, WMpFull, []int{3, 17}); err != nil {
			t.Fatal(err)
		}

		var metrics, trace bytes.Buffer
		if err := reg.WriteJSON(&metrics); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteJSON(&trace); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(append(metrics.Bytes(), trace.Bytes()...))
		return reg.Snapshot(), trace.Bytes(), hex.EncodeToString(sum[:])
	}

	refSnap, refTrace, refSum := run(1)

	// Sanity: the sweep visits every (layer, config) cell once and the
	// recovery run adds a healthy and a degraded pass.
	wantLayers := int64(len(net.Layers) * (len(cfgs) + 2))
	if got := refSnap["sim.layers"]; got != wantLayers {
		t.Errorf("sim.layers = %d, want %d", got, wantLayers)
	}
	if got := refSnap["sim.reconfigs"]; got != 1 {
		t.Errorf("sim.reconfigs = %d, want 1", got)
	}
	if len(refTrace) == 0 {
		t.Fatal("empty trace export")
	}
	if refSum != telemetryGolden {
		t.Errorf("telemetry digest %s, want %s", refSum, telemetryGolden)
	}

	for _, workers := range []int{2, 8} {
		snap, trace, _ := run(workers)
		if !reflect.DeepEqual(refSnap, snap) {
			t.Errorf("workers=%d: metrics snapshot differs from workers=1:\nref: %v\ngot: %v",
				workers, refSnap, snap)
		}
		if !bytes.Equal(refTrace, trace) {
			t.Errorf("workers=%d: trace bytes differ from workers=1 (%d vs %d bytes)",
				workers, len(refTrace), len(trace))
		}
	}
}
