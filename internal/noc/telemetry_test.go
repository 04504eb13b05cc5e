package noc

import (
	"bytes"
	"reflect"
	"testing"

	"mptwino/internal/fault"
	"mptwino/internal/telemetry"
	"mptwino/internal/topology"
)

// TestTelemetryDeterministicUnderFaults runs an instrumented all-to-all
// with link faults (so drop/retransmit paths fire) twice and asserts the
// metrics snapshot and exported trace bytes are identical: no emission
// site may depend on map order or wall-clock time.
func TestTelemetryDeterministicUnderFaults(t *testing.T) {
	members := make([]int, 16)
	for i := range members {
		members[i] = i
	}
	run := func() (map[string]int64, []byte) {
		t.Helper()
		n := New(topology.FBFly2D(4), DefaultConfig())
		plan := fault.NewPlan(42).
			DegradeLink(0, 1, 0, 0, 0.25, 10).
			DropOnLink(2, 3, 0, 5000, 0.2)
		if err := n.AttachFaults(plan); err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		trc := telemetry.NewTracer()
		n.Instrument(reg, trc)
		if _, err := n.Run(&AllToAll{Members: members, Bytes: 1024}, 50_000_000); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trc.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot(), buf.Bytes()
	}

	refSnap, refTrace := run()

	// Sanity: the run did real work and the faulty links actually dropped.
	for _, name := range []string{
		"noc.cycles", "noc.flit_hops", "noc.messages_delivered",
		"noc.dropped_flits", "noc.retransmits", "noc.bytes.narrow",
	} {
		if refSnap[name] == 0 {
			t.Errorf("%s = 0, want nonzero", name)
		}
	}
	if got, want := refSnap["noc.messages_delivered"], int64(16*15); got != want {
		t.Errorf("noc.messages_delivered = %d, want %d (all-to-all over 16 members)", got, want)
	}
	if !bytes.Contains(refTrace, []byte(`"noc.msg"`)) {
		t.Error("trace contains no message spans")
	}

	snap, trace := run()
	if !reflect.DeepEqual(refSnap, snap) {
		t.Errorf("metrics snapshot differs between two runs:\nfirst:  %v\nsecond: %v", refSnap, snap)
	}
	if !bytes.Equal(refTrace, trace) {
		t.Errorf("trace bytes differ between two runs (%d vs %d bytes)", len(refTrace), len(trace))
	}
}
