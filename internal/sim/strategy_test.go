package sim

import (
	"math"
	"reflect"
	"testing"

	"mptwino/internal/comm"
	"mptwino/internal/model"
)

// TestSimulateLayerStrategyMatchesFixedGrid pins the oracle entry point
// to the fixed-grid config: feeding it the (16,16) two-axis strategy must
// reproduce SimulateLayer(WMp) bit-exactly.
func TestSimulateLayerStrategyMatchesFixedGrid(t *testing.T) {
	s := DefaultSystem()
	net := model.VGG16()
	for _, l := range net.Layers {
		st := comm.Strategy{Ng: 16, Nc: 16, Winograd: true}
		got := s.SimulateLayerStrategy(l, net.Batch, WMp, st)
		want := s.SimulateLayer(l, net.Batch, WMp)
		if got.TotalSec() != want.TotalSec() || got.NetBytes != want.NetBytes ||
			got.DRAMBytes != want.DRAMBytes || got.BoundBytes != want.BoundBytes {
			t.Fatalf("%s: strategy oracle %+v != fixed grid %+v", l.Name, got, want)
		}
	}
}

// TestSimulateLayerStrategyDirect checks the non-Winograd branch routes
// to the d_dp phase model.
func TestSimulateLayerStrategyDirect(t *testing.T) {
	s := DefaultSystem()
	net := model.VGG16()
	l := net.Layers[0]
	st := comm.Strategy{Ng: 1, Nc: s.Workers}
	got := s.SimulateLayerStrategy(l, net.Batch, WMpFull, st)
	want := s.SimulateLayer(l, net.Batch, DDp)
	if got.TotalSec() != want.TotalSec() {
		t.Fatalf("direct strategy %g != DDp %g", got.TotalSec(), want.TotalSec())
	}
	if got.Config != DDp {
		t.Fatalf("direct strategy kept config %v", got.Config)
	}
}

// TestExtendedStrategySane checks structural properties of the extended
// phase model: finite positive time, partial-sum traffic on the tile
// fabric, and a weight collective that shrinks with the cell size.
func TestExtendedStrategySane(t *testing.T) {
	s := DefaultSystem()
	net := model.VGG16()
	l := net.Layers[7]

	base := comm.Strategy{Ng: 4, Nc: 64, Nf: 1, Ni: 1, Winograd: true}
	ext := comm.Strategy{Ng: 4, Nc: 16, Nf: 2, Ni: 2, Winograd: true}
	rb := s.SimulateLayerStrategy(l, net.Batch, WMp, base)
	re := s.SimulateLayerStrategy(l, net.Batch, WMp, ext)

	for _, r := range []LayerResult{rb, re} {
		if !(r.TotalSec() > 0) || math.IsInf(r.TotalSec(), 0) || math.IsNaN(r.TotalSec()) {
			t.Fatalf("%s: bad total %g", r.Name, r.TotalSec())
		}
	}
	if re.Nf != 2 || re.Ni != 2 {
		t.Fatalf("shard axes not recorded: %+v", re)
	}
	if re.CollBytes >= rb.CollBytes {
		t.Fatalf("cell sharding must shrink the collective: ext=%d base=%d", re.CollBytes, rb.CollBytes)
	}
	if re.TileBytes <= 0 {
		t.Fatalf("extended strategy moved no tile bytes")
	}
}

// TestStrategiesPerConfig pins how each Table IV config resolves to its
// strategy list: one data-parallel strategy for d_dp and w_dp, one fixed
// grid for w_mp and w_mp+ (the survivor menu's head when one is
// installed), the whole menu for w_mp* and w_mp++, and reductions exactly
// on the prediction configs.
func TestStrategiesPerConfig(t *testing.T) {
	s := DefaultSystem()
	red := s.Reductions
	g16, s16 := red.Get(4, 16) // (16,16) on F(2×2,3×3)
	g4, s4 := red.Get(4, 4)    // (4,64) on F(2×2,3×3)
	fixed := comm.Strategy{Ng: 16, Nc: 16, Winograd: true}
	fixedPred := fixed
	fixedPred.GatherReduction, fixedPred.ScatterReduction = g16, s16
	menu := comm.DefaultConfigs(256)
	menuPred := []comm.Strategy{fixedPred,
		{Ng: 4, Nc: 64, Winograd: true, GatherReduction: g4, ScatterReduction: s4},
		{Ng: 1, Nc: 256, Winograd: true}}
	for _, tc := range []struct {
		c    SystemConfig
		want []comm.Strategy
	}{
		{DDp, []comm.Strategy{{Ng: 1, Nc: 256}}},
		{WDp, []comm.Strategy{{Ng: 1, Nc: 256, Winograd: true}}},
		{WMp, []comm.Strategy{fixed}},
		{WMpPred, []comm.Strategy{fixedPred}},
		{WMpDyn, menu},
		{WMpFull, menuPred},
	} {
		if got := s.Strategies(tc.c, 3); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: strategies %+v, want %+v", tc.c, got, tc.want)
		}
	}

	// Without a menu the fixed grid takes the largest Ng ≤ 16 dividing p;
	// with a survivor menu, its head.
	s.Workers = 24
	if got := s.Strategies(WMp, 3); len(got) != 1 || got[0].Ng != 8 || got[0].Nc != 3 {
		t.Errorf("p=24 fixed grid %+v, want (8,3)", got)
	}
	s.Workers = 255
	s.Menu = comm.SurvivorConfigs(255)
	if got := s.Strategies(WMp, 3); len(got) != 1 || got[0].Ng != 16 || got[0].Nc != 15 {
		t.Errorf("255 survivors: fixed grid %+v, want (16,15)", got)
	}
	if got := s.Strategies(WMpDyn, 3); !reflect.DeepEqual(got, s.Menu) {
		t.Errorf("255 survivors: menu %+v, want %+v", got, s.Menu)
	}
}

// TestSimulateNetworkWithPlan runs a plan through the network runner: a
// plan cycling through the clustering menu runs each layer under its own
// strategy, the fixed-grid config's own strategy per layer reproduces
// SimulateNetwork bit for bit, and a plan one entry short or one entry
// too long returns an error and no result.
func TestSimulateNetworkWithPlan(t *testing.T) {
	s := DefaultSystem()
	net := model.AlexNet()
	mixed := make([]comm.Strategy, len(net.Layers))
	fixed := make([]comm.Strategy, len(net.Layers))
	for i, l := range net.Layers {
		mixed[i] = s.Strategies(WMpDyn, l.P.K)[i%3]
		fixed[i] = s.Strategies(WMp, l.P.K)[0]
	}
	got, err := s.SimulateNetworkWithPlan(net, WMp, mixed)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range net.Layers {
		if want := s.SimulateLayerStrategy(l, net.Batch, WMp, mixed[i]); !reflect.DeepEqual(got.Layers[i], want) {
			t.Errorf("%s: planned layer %+v, want %+v", l.Name, got.Layers[i], want)
		}
	}
	got, err = s.SimulateNetworkWithPlan(net, WMp, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if want := s.SimulateNetwork(net, WMp); !reflect.DeepEqual(got, want) {
		t.Errorf("fixed-grid plan %+v, want SimulateNetwork's %+v", got, want)
	}

	for name, bad := range map[string][]comm.Strategy{
		"one short":    fixed[:len(fixed)-1],
		"one too long": append(fixed[:len(fixed):len(fixed)], fixed[0]),
		"nil":          nil,
	} {
		r, err := s.SimulateNetworkWithPlan(net, WMp, bad)
		if err == nil {
			t.Errorf("%s: no error", name)
		}
		if !reflect.DeepEqual(r, NetworkResult{}) {
			t.Errorf("%s: returned a result %+v with the error", name, r)
		}
	}
}
