package comm

import (
	"testing"

	"mptwino/internal/model"
	"mptwino/internal/winograd"
)

// TestExtendedVolumesAxes checks the qualitative structure of the new
// axes: partial sums appear exactly when a channel/filter axis is in
// play, and sharding channels shrinks the weight collective.
func TestExtendedVolumesAxes(t *testing.T) {
	l := model.VGG16().Layers[7] // a mid-network 3×3 layer
	tr, err := winograd.ForKernel(l.P.K, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := Strategy{Ng: 4, Nc: 16, Nf: 1, Ni: 1, Winograd: true}
	fs := Strategy{Ng: 4, Nc: 16, Nf: 4, Ni: 1, Winograd: true}
	cs := Strategy{Ng: 4, Nc: 16, Nf: 1, Ni: 4, Winograd: true}

	vb := LayerVolumes(tr, l.P, 256, base)
	vf := LayerVolumes(tr, l.P, 256, fs)
	vc := LayerVolumes(tr, l.P, 256, cs)

	if vb.PartialSum != 0 {
		t.Errorf("no shard axes but PartialSum=%d", vb.PartialSum)
	}
	if vf.PartialSum <= 0 || vc.PartialSum <= 0 {
		t.Errorf("shard axes must add partial-sum traffic: filter=%d channel=%d",
			vf.PartialSum, vc.PartialSum)
	}
	if vf.Weight >= vb.Weight || vc.Weight >= vb.Weight {
		t.Errorf("sharding must shrink the per-worker weight collective: base=%d filter=%d channel=%d",
			vb.Weight, vf.Weight, vc.Weight)
	}
}

// TestPhaseVolumesWholeBytes checks every value PhaseVolumes returns
// against its exact rational payload, got ≤ exact < got + 2, by integer
// cross-multiplication (no overflow at these sizes), on every feasible
// factorization of fleets the menu divides and fleets it does not. It
// also checks the fprop/bprop duality: the scatter of one phase is the
// gather of the other.
func TestPhaseVolumesWholeBytes(t *testing.T) {
	var layers []model.Layer
	for _, n := range append(model.AllNetworks(), model.VGG16(), model.AlexNet()) {
		layers = append(layers, n.Layers...)
	}
	layers = append(append(layers, model.FiveLayers()...), model.FiveLayers5x5()...)

	checked := 0
	for _, p := range []int{16, 60, 240, 252, 255, 256} {
		for _, batch := range []int{256, 100, 8} {
			for _, f := range Factorizations(p) {
				for _, l := range layers {
					if f.Nc > batch || f.Nf > l.P.Out || f.Ni > l.P.In {
						continue
					}
					for _, tileM := range []int{0, 2, 4, 6} {
						s := Strategy{Ng: f.Ng, Nc: f.Nc, Nf: f.Nf, Ni: f.Ni, Winograd: true, TileM: tileM}
						tr, err := s.Transform(l.P.K)
						if err != nil {
							continue
						}
						fwd, bwd := PhaseVolumes(tr, l.P, batch, s)
						if fwd.Scatter != bwd.Gather || fwd.Gather != bwd.Scatter {
							t.Fatalf("p=%d %+v: fprop %+v and bprop %+v are not mirrored", p, f, fwd, bwd)
						}
						d := int64(s.Cell())
						nc, ng, nf, ni := int64(f.Nc), int64(f.Ng), int64(f.Nf), int64(f.Ni)
						in := TileBytes(tr, l.P, batch, l.P.In)
						out := TileBytes(tr, l.P, batch, l.P.Out)
						for _, c := range []struct {
							name     string
							got      int64
							num, den int64 // exact payload num/den
						}{
							{"fprop scatter", fwd.Scatter, in * (d - 1), nc * ng * ni * d},
							{"fprop gather", fwd.Gather, out * (d - 1), nc * ng * nf * d},
							{"fprop partial", fwd.Partial, out * (ni - 1), nc * ng * nf * ni},
							{"bprop partial", bwd.Partial, in * (nf - 1), nc * ng * ni * nf},
						} {
							if !(c.got*c.den <= c.num && c.num < (c.got+2)*c.den) {
								t.Fatalf("p=%d batch=%d %s %+v tile %s: %s = %d, exact %d/%d",
									p, batch, l.Name, f, tr, c.name, c.got, c.num, c.den)
							}
						}
						checked++
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no factorization checked")
	}
}

// TestFactorizations checks the enumerator's contract: every quadruple
// multiplies to p, there are no duplicates, the menu anchors appear, and
// the order is deterministic.
func TestFactorizations(t *testing.T) {
	for _, p := range []int{1, 2, 4, 16, 60, 256} {
		fs := Factorizations(p)
		seen := make(map[Factorization]bool, len(fs))
		for _, f := range fs {
			if f.Product() != p {
				t.Fatalf("p=%d: %+v multiplies to %d", p, f, f.Product())
			}
			if seen[f] {
				t.Fatalf("p=%d: duplicate %+v", p, f)
			}
			seen[f] = true
		}
		again := Factorizations(p)
		if len(again) != len(fs) {
			t.Fatalf("p=%d: non-deterministic length", p)
		}
		for i := range fs {
			if fs[i] != again[i] {
				t.Fatalf("p=%d: non-deterministic order at %d", p, i)
			}
		}
	}

	fs := Factorizations(256)
	for _, want := range []Factorization{
		{Ng: 16, Nc: 16, Nf: 1, Ni: 1},
		{Ng: 4, Nc: 64, Nf: 1, Ni: 1},
		{Ng: 1, Nc: 256, Nf: 1, Ni: 1},
		{Ng: 4, Nc: 16, Nf: 2, Ni: 2},
	} {
		found := false
		for _, f := range fs {
			if f == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Factorizations(256) missing %+v", want)
		}
	}
}
