package sim

import (
	"testing"

	"mptwino/internal/comm"
	"mptwino/internal/model"
)

func TestSimulateNetworkWithFailure(t *testing.T) {
	s := DefaultSystem()
	net := model.WRN40x10()

	res, err := s.SimulateNetworkWithFailure(net, WMpFull, []int{17})
	if err != nil {
		t.Fatal(err)
	}
	if res.Survivors != 255 {
		t.Fatalf("survivors = %d, want 255", res.Survivors)
	}
	if res.Degraded.IterationSec <= 0 {
		t.Fatal("degraded simulation produced no iteration time")
	}
	if res.Slowdown() < 1 {
		t.Fatalf("degraded run faster than healthy (slowdown %v)", res.Slowdown())
	}
	// One module of 256 should cost well under 2×.
	if res.Slowdown() > 2 {
		t.Fatalf("single-module failure slowdown %v implausibly large", res.Slowdown())
	}
	if res.ReconfigSec <= 0 {
		t.Fatal("reconfiguration cost not reported")
	}
	// The degraded grid must fit in the survivor pool.
	for _, lr := range res.Degraded.Layers {
		if lr.Ng*lr.Nc > res.Survivors {
			t.Fatalf("layer %s wired as (%d,%d) with only %d survivors", lr.Name, lr.Ng, lr.Nc, res.Survivors)
		}
	}

	// Fixed-grid MPT falls back to the survivor menu's leading entry.
	fixed, err := s.SimulateNetworkWithFailure(net, WMp, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range fixed.Degraded.Layers {
		if lr.Ng != 16 || lr.Nc != 15 {
			t.Fatalf("fixed WMp at 255 survivors wired (%d,%d), want (16,15)", lr.Ng, lr.Nc)
		}
	}

	// Duplicated failure ids collapse.
	dup, err := s.SimulateNetworkWithFailure(net, WMpFull, []int{3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if dup.Survivors != 255 {
		t.Fatalf("duplicate failures double-counted: survivors = %d", dup.Survivors)
	}

	// Validation.
	if _, err := s.SimulateNetworkWithFailure(net, WMpFull, []int{256}); err == nil {
		t.Fatal("out-of-range module accepted")
	}
	all := make([]int, s.Workers)
	for i := range all {
		all[i] = i
	}
	if _, err := s.SimulateNetworkWithFailure(net, WMpFull, all); err == nil {
		t.Fatal("zero survivors accepted")
	}
}

func TestClusterMenuOverride(t *testing.T) {
	s := DefaultSystem()
	s.Workers = 255
	if got := len(s.Strategies(WMpDyn, 3)); got != 1 {
		// DefaultConfigs(255) = {(1,255)} only.
		t.Fatalf("default menu for 255 workers has %d entries, want 1", got)
	}
	s.Menu = []comm.Strategy{{Ng: 16, Nc: 15}, {Ng: 4, Nc: 63}}
	if got := len(s.Strategies(WMpDyn, 3)); got != 2 {
		t.Fatalf("override menu has %d entries, want 2", got)
	}
}
