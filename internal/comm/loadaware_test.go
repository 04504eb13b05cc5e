package comm

import (
	"math"
	"reflect"
	"testing"
	"time"

	"mptwino/internal/model"
)

func TestEqualShardsMatchEngineBounds(t *testing.T) {
	for _, tc := range []struct{ batch, nc int }{{64, 16}, {64, 15}, {7, 3}, {1, 1}, {5, 8}} {
		shares := EqualShards(tc.batch, tc.nc)
		sum := 0
		for c, s := range shares {
			sum += s
			// Must match the engine's shardBounds formula exactly.
			if want := (c+1)*tc.batch/tc.nc - c*tc.batch/tc.nc; s != want {
				t.Errorf("B=%d Nc=%d share[%d]=%d want %d", tc.batch, tc.nc, c, s, want)
			}
		}
		if sum != tc.batch {
			t.Errorf("B=%d Nc=%d shares sum to %d", tc.batch, tc.nc, sum)
		}
	}
}

func TestLoadAwareShardsProportionalAndExact(t *testing.T) {
	// One straggler cluster at half speed among four: it should take ~1/7
	// of the batch instead of 1/4.
	shares := LoadAwareShards(70, []float64{1, 1, 0.5, 1})
	sum := 0
	for _, s := range shares {
		sum += s
	}
	if sum != 70 {
		t.Fatalf("shares %v sum to %d, want 70", shares, sum)
	}
	if shares[2] >= shares[0] {
		t.Fatalf("straggler cluster share %d not below healthy %d", shares[2], shares[0])
	}
	if want := 10; shares[2] != want {
		t.Errorf("straggler share = %d, want %d (speed-proportional)", shares[2], want)
	}

	// Homogeneous fleet: balanced split, shares differ by at most one.
	hom := LoadAwareShards(67, []float64{1, 1, 1, 1, 1})
	min, max := hom[0], hom[0]
	total := 0
	for _, s := range hom {
		total += s
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if total != 67 || max-min > 1 {
		t.Fatalf("homogeneous shares %v: sum %d spread %d", hom, total, max-min)
	}

	// Min-one guarantee: an extreme straggler still gets a sample when the
	// batch covers every cluster.
	ext := LoadAwareShards(8, []float64{1, 1, 1, 0.001})
	for c, s := range ext {
		if s < 1 {
			t.Fatalf("cluster %d starved: shares %v", c, ext)
		}
	}
}

// TestLoadAwareShardsNonFiniteSpeeds: a NaN or infinite speed counts as a
// zero speed, so the apportionment returns — int(NaN) would seed the
// leftover loop with about 2⁶³ samples to hand out — with shares that sum
// to the batch and match the zero-speed profile.
func TestLoadAwareShardsNonFiniteSpeeds(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		speeds, zeroed []float64
	}{
		{[]float64{1, nan}, []float64{1, 0}},
		{[]float64{1, inf}, []float64{1, 0}},
		{[]float64{1, -inf, 0.5}, []float64{1, 0, 0.5}},
		{[]float64{inf, 0.5, nan, 2}, []float64{0, 0.5, 0, 2}},
		{[]float64{nan, inf}, []float64{0, 0}},
	} {
		done := make(chan []int, 1)
		go func() { done <- LoadAwareShards(13, tc.speeds) }()
		var shares []int
		select {
		case shares = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("LoadAwareShards(13, %v) did not return", tc.speeds)
		}
		sum := 0
		for _, s := range shares {
			sum += s
		}
		if sum != 13 {
			t.Errorf("LoadAwareShards(13, %v) = %v, sums to %d", tc.speeds, shares, sum)
		}
		if want := LoadAwareShards(13, tc.zeroed); !reflect.DeepEqual(shares, want) {
			t.Errorf("LoadAwareShards(13, %v) = %v, want the zero-speed shares %v", tc.speeds, shares, want)
		}
	}
}

func TestLoadAwareShardsDeterministic(t *testing.T) {
	speeds := []float64{1, 0.7, 0.7, 0.4, 1, 0.9, 1, 0.55}
	ref := LoadAwareShards(253, speeds)
	for i := 0; i < 100; i++ {
		if got := LoadAwareShards(253, speeds); !reflect.DeepEqual(got, ref) {
			t.Fatalf("run %d: %v != %v", i, got, ref)
		}
	}
}

func TestLoadAwareBeatsEqualOnStraggler(t *testing.T) {
	// The acceptance criterion in miniature: with one half-speed cluster,
	// the equal split stretches the synchronous step 2.0x while the
	// load-aware split stays near 1.1x.
	speeds := []float64{1, 1, 1, 1, 1, 1, 1, 0.5}
	batch := 64
	equal := ShardStretch(EqualShards(batch, len(speeds)), speeds)
	aware := ShardStretch(LoadAwareShards(batch, speeds), speeds)
	if equal < 1.9 {
		t.Fatalf("equal-split stretch %v, expected ~2.0 on a 0.5x straggler", equal)
	}
	if aware >= equal {
		t.Fatalf("load-aware stretch %v does not beat equal %v", aware, equal)
	}
	if aware > 1.3 {
		t.Errorf("load-aware stretch %v, want near 1.1", aware)
	}
}

func TestClusterSpeeds(t *testing.T) {
	speeds := []float64{1, 1, 0.5, 1, 1, 1, 0.8, 0.9}
	modules := []int{0, 1, 2, 3, 4, 5, 6, 7}
	got := ClusterSpeeds(speeds, modules, 2, 4)
	want := []float64{1, 0.5, 1, 0.8}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ClusterSpeeds = %v, want %v", got, want)
	}
	// Survivor compaction: module 2 dead, survivors renumber the grid.
	surv := []int{0, 1, 3, 4, 5, 6}
	got = ClusterSpeeds(speeds, surv, 2, 3)
	want = []float64{1, 1, 0.8}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("survivor ClusterSpeeds = %v, want %v", got, want)
	}
	// Nil speeds read healthy.
	got = ClusterSpeeds(nil, modules, 2, 4)
	for _, s := range got {
		if s != 1 {
			t.Fatalf("nil speeds gave %v", got)
		}
	}
}

func TestShardStretchAndImbalance(t *testing.T) {
	if s := ShardStretch([]int{16, 16, 16, 16}, []float64{1, 1, 1, 1}); math.Abs(s-1) > 1e-12 {
		t.Fatalf("healthy equal stretch = %v, want 1", s)
	}
	if s := ShardStretch([]int{16, 16, 16, 16}, []float64{1, 1, 1, 0.5}); math.Abs(s-2) > 1e-12 {
		t.Fatalf("straggler equal stretch = %v, want 2", s)
	}
	if im := ImbalancePermille([]int{16, 16, 16, 16}); im != 0 {
		t.Fatalf("even imbalance = %d", im)
	}
	if im := ImbalancePermille([]int{18, 16, 14, 16}); im != (18-14)*1000/14 {
		t.Fatalf("imbalance = %d", im)
	}
}

func TestLowerBoundBytes(t *testing.T) {
	layers := model.FiveLayers()
	cfgs := DefaultConfigs(256)
	for _, l := range layers {
		bound := LowerBoundBytes(l.P, 64, cfgs)
		if bound <= 0 {
			t.Fatalf("layer %s: bound %d", l.Name, bound)
		}
		// The bound is the menu minimum: no no-reduction config beats it.
		for _, cfg := range cfgs {
			tr, err := cfg.Transform(l.P.K)
			if err != nil {
				t.Fatal(err)
			}
			if v := LayerVolumes(tr, l.P, 64, cfg); v.Total() < bound {
				t.Errorf("layer %s: config %+v moves %d < bound %d", l.Name, cfg, v.Total(), bound)
			}
		}
	}
}
