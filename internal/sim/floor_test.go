package sim_test

import (
	"math"
	"testing"

	"mptwino/internal/comm"
	"mptwino/internal/model"
	"mptwino/internal/planner"
	"mptwino/internal/sim"
)

// volumeFloorSec is CommFloorSec as it was written before its tile terms
// moved to comm.TileVolumes: comm.LayerVolumes' tile terms on the cell
// fabric plus the weight ring of weightCollective, with LayerVolumes'
// weight term built and dropped.
func volumeFloorSec(s *sim.System, l model.Layer, batch int, st comm.Strategy) float64 {
	if !st.Winograd {
		return sim.CollectiveSeconds(s, comm.SpatialWeightBytes(l.P), s.Workers, sim.RingBW(s, sim.DDp))
	}
	tr, err := st.Transform(l.P.K)
	if err != nil {
		panic(err)
	}
	v := comm.LayerVolumes(tr, l.P, batch, st)
	tileBytes := int64(float64(v.TileGather)*l.EffectiveGatherScale()) + v.TileScatter + v.PartialSum
	msg, bw := sim.WeightCollective(s, tr, l.P, st)
	return sim.TileSeconds(s, tileBytes, st.Cell()) + sim.CollectiveSeconds(s, msg, st.Nc, bw)
}

// TestCommFloorMatchesVolumeFormula pins CommFloorSec bit for bit to
// volumeFloorSec over every planner.Candidates entry of AlexNet and
// VGG-16, with and without wide tiles, with the paper's reductions
// (prediction on) and with none (prediction off).
func TestCommFloorMatchesVolumeFormula(t *testing.T) {
	s := sim.DefaultSystem()
	n := 0
	for _, net := range []model.Network{model.AlexNet(), model.VGG16()} {
		for _, l := range net.Layers {
			for _, pred := range []bool{true, false} {
				for _, wide := range []bool{false, true} {
					for _, c := range planner.Candidates(l, net.Batch, s.Workers, pred, s.Reductions, wide) {
						got := s.CommFloorSec(l, net.Batch, c.St)
						want := volumeFloorSec(&s, l, net.Batch, c.St)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s/%s %+v: CommFloorSec %v, volume formula %v", net.Name, l.Name, c.St, got, want)
						}
						n++
					}
				}
			}
		}
	}
	t.Logf("%d floors equal", n)
}

// TestCommFloorRejectsInvalidStrategy: like comm.LayerVolumes, the floor
// panics on a strategy Validate rejects, here a gather reduction over 1.
func TestCommFloorRejectsInvalidStrategy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CommFloorSec accepted GatherReduction 1.5")
		}
	}()
	s := sim.DefaultSystem()
	s.CommFloorSec(model.AlexNet().Layers[1], 256, comm.Strategy{Ng: 4, Nc: 64, Winograd: true, GatherReduction: 1.5})
}
