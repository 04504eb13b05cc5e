package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"testing"

	"mptwino/internal/comm"
	"mptwino/internal/model"
)

// phaseModelGolden is the SHA-256 of phaseModelDigest. Any change to a
// phase, DRAM, tile-time, volume or weight-shard formula that reaches one
// of the swept points changes it; a refactor of the phase model must keep
// it.
const phaseModelGolden = "9ab9df3742e26c750de4a6e2473d171c409132ee9dd18c0416eddbebb786d674"

// TestPhaseModelGoldenDigest pins, bit for bit, every LayerResult field,
// CommFloorSec and comm.LayerVolumes over the fixed menu, the two-axis
// factorizations and the planner's four-axis candidates, plus the fault
// path's recovery results, at host worker counts {1, 2, 8}.
func TestPhaseModelGoldenDigest(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		if got := phaseModelDigest(t, par); got != phaseModelGolden {
			t.Errorf("Parallel=%d: phase-model digest %s, want %s", par, got, phaseModelGolden)
		}
	}
}

// digestLayers is the catalog the digest sweeps: the Table I networks,
// VGG-16, AlexNet and both Table II layer sets.
func digestLayers() []model.Layer {
	var out []model.Layer
	for _, n := range []model.Network{model.WRN40x10(), model.ResNet34(), model.FractalNet44(), model.VGG16(), model.AlexNet()} {
		out = append(out, n.Layers...)
	}
	out = append(out, model.FiveLayers()...)
	return append(out, model.FiveLayers5x5()...)
}

// digestSystem is the default machine at p workers. Worker counts the
// paper's menu does not divide get the survivor menu the fault path
// installs; the straggler fleet has one half-speed module with a
// three-quarter-speed link, sharded load-aware.
func digestSystem(p, par int, straggler bool) System {
	s := DefaultSystem()
	s.Workers = p
	s.Parallel = par
	if p%16 != 0 {
		s.Menu = comm.SurvivorConfigs(p)
	}
	if straggler {
		s.ComputeSpeeds = make([]float64, p)
		s.LinkSpeeds = make([]float64, p)
		for i := range s.ComputeSpeeds {
			s.ComputeSpeeds[i], s.LinkSpeeds[i] = 1, 1
		}
		s.ComputeSpeeds[p/3], s.LinkSpeeds[p/3] = 0.5, 0.75
		s.LoadAware = true
	}
	return s
}

func phaseModelDigest(t *testing.T, par int) string {
	d := digester{h: sha256.New()}
	layers := digestLayers()
	red := comm.PaperReductions()

	// strategy hashes the oracle, the floor and the volumes of one
	// feasible strategy; infeasible tile sizes are skipped.
	strategy := func(s System, l model.Layer, batch int, st comm.Strategy, pred bool) {
		tr, err := st.Transform(l.P.K)
		if err != nil {
			return
		}
		if pred {
			st.GatherReduction, st.ScatterReduction = red.Get(tr.T, st.Ng)
		}
		d.value(reflect.ValueOf(s.SimulateLayerStrategy(l, batch, WMpFull, st)))
		d.u64(math.Float64bits(s.CommFloorSec(l, batch, st)))
		d.value(reflect.ValueOf(comm.LayerVolumes(tr, l.P, batch, st)))
	}

	for _, p := range []int{16, 60, 64, 240, 252, 255, 256} {
		for _, batch := range []int{256, 100, 8} {
			// (a) Table IV through SimulateLayer, homogeneous and straggler.
			for _, straggler := range []bool{false, true} {
				s := digestSystem(p, par, straggler)
				for _, l := range layers {
					for _, c := range AllConfigs() {
						d.value(reflect.ValueOf(s.SimulateLayer(l, batch, c)))
					}
				}
			}
			// (b) every two-axis factorization × tile size × prediction.
			s := digestSystem(p, par, false)
			for _, f := range comm.Factorizations(p) {
				if f.Nf != 1 || f.Ni != 1 {
					continue
				}
				for _, l := range layers {
					for _, tileM := range []int{0, 2, 4, 6} {
						for _, pred := range []bool{false, true} {
							st := comm.Strategy{Ng: f.Ng, Nc: f.Nc, Winograd: true, TileM: tileM}
							strategy(s, l, batch, st, pred)
						}
					}
				}
			}
		}
	}

	// (c) the planner's four-axis candidates (its feasibility rules).
	fourAxis := func(p int, batches, tileMs []int, preds []bool) {
		s := digestSystem(p, par, false)
		for _, batch := range batches {
			for _, f := range comm.Factorizations(p) {
				if f.Nf*f.Ni == 1 {
					continue
				}
				for _, l := range layers {
					if f.Nc > batch || f.Nf > l.P.Out || f.Ni > l.P.In {
						continue
					}
					for _, tileM := range tileMs {
						for _, pred := range preds {
							st := comm.Strategy{Ng: f.Ng, Nc: f.Nc, Nf: f.Nf, Ni: f.Ni, Winograd: true, TileM: tileM}
							strategy(s, l, batch, st, pred)
						}
					}
				}
			}
		}
	}
	fourAxis(256, []int{256}, []int{0, 2, 4, 6}, []bool{false, true})
	for _, p := range []int{16, 64} {
		fourAxis(p, []int{256, 100, 64}, []int{0, 2, 4}, []bool{true})
	}

	// (d) fault recovery: the degraded re-solve and its re-shard cost.
	sixteen := make([]int, 16)
	for i := range sixteen {
		sixteen[i] = 16*i + 1
	}
	s := digestSystem(256, par, false)
	for _, net := range []model.Network{model.WRN40x10(), model.ResNet34(), model.FractalNet44(), model.VGG16(), model.AlexNet()} {
		for _, failed := range [][]int{{17}, {3, 7, 200}, sixteen} {
			for _, c := range []SystemConfig{DDp, WDp, WMp, WMpFull} {
				r, err := s.SimulateNetworkWithFailure(net, c, failed)
				if err != nil {
					t.Fatal(err)
				}
				d.value(reflect.ValueOf(r))
			}
		}
	}
	return hex.EncodeToString(d.h.Sum(nil))
}

// digester feeds values into a hash field by field: floats by their bit
// pattern, integers as 64-bit words, strings and slices length-prefixed.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digester) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		d.u64(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int64:
		d.u64(uint64(v.Int()))
	case reflect.String:
		d.u64(uint64(v.Len()))
		d.h.Write([]byte(v.String()))
	case reflect.Slice:
		d.u64(uint64(v.Len()))
		for i := range v.Len() {
			d.value(v.Index(i))
		}
	case reflect.Struct:
		for i := range v.NumField() {
			d.value(v.Field(i))
		}
	default:
		panic("digest: unsupported kind " + v.Kind().String())
	}
}
