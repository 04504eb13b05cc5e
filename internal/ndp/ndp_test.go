package ndp

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"math/rand"

	"mptwino/internal/conv"
	"mptwino/internal/model"
	"mptwino/internal/winograd"
)

func TestMatmulCycles(t *testing.T) {
	c := DefaultConfig()
	// A single 64×64 output block with k=256: 256+64 cycles.
	if got := c.MatmulCycles(64, 256, 64); got != 320 {
		t.Fatalf("cycles = %d, want 320", got)
	}
	// 2×2 output blocks quadruple it.
	if got := c.MatmulCycles(128, 256, 128); got != 4*320 {
		t.Fatalf("cycles = %d, want 1280", got)
	}
	// Degenerate sizes cost nothing.
	if c.MatmulCycles(0, 5, 5) != 0 {
		t.Fatal("zero-size matmul should be free")
	}
}

func TestMatmulNearPeakForLargeK(t *testing.T) {
	c := DefaultConfig()
	// Utilization approaches 100% as k grows: MACs / (cycles · S²) → 1.
	m, k, n := int64(64), int64(64*1024), int64(64)
	cycles := c.MatmulCycles(m, k, n)
	util := float64(m*k*n) / (float64(cycles) * float64(c.SystolicDim*c.SystolicDim))
	if util < 0.95 {
		t.Fatalf("utilization %v, want > 0.95", util)
	}
}

func TestDRAMSeconds(t *testing.T) {
	c := DefaultConfig()
	// 256 GB at 320 GB/s × 0.8 = 1 second.
	if got := c.DRAMSeconds(256 << 30); math.Abs(got-256.0/(320*0.8)*(1<<30)/1e9*1e9/(1<<30)*1) > 0.05 {
		// simpler check below
		_ = got
	}
	got := c.DRAMSeconds(int64(320e9 * 0.8))
	if math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("DRAMSeconds = %v, want 1.0", got)
	}
	if c.DRAMSeconds(0) != 0 || c.DRAMSeconds(-5) != 0 {
		t.Fatal("non-positive bytes should cost nothing")
	}
}

func TestVectorCycles(t *testing.T) {
	c := DefaultConfig()
	c.VectorLanes = 64
	if c.VectorCycles(64) != 1 || c.VectorCycles(65) != 2 || c.VectorCycles(0) != 0 {
		t.Fatal("vector cycle rounding wrong")
	}
}

func TestPhaseSeconds(t *testing.T) {
	if PhaseSeconds(3, 1, 2) != 3 || PhaseSeconds(1, 5, 2) != 5 || PhaseSeconds(1, 2, 9) != 9 {
		t.Fatal("PhaseSeconds should be the max")
	}
}

func TestFP16ConfigBiggerArray(t *testing.T) {
	if FP16Config().SystolicDim != 96 {
		t.Fatal("FP16 variant should be 96×96")
	}
	if FP16Config().PeakMACsPerSec() <= DefaultConfig().PeakMACsPerSec() {
		t.Fatal("FP16 variant should have higher peak")
	}
}

func TestWeightsFitInBuffer(t *testing.T) {
	c := DefaultConfig()
	if !c.WeightsFitInBuffer(512 << 10) {
		t.Fatal("512KB should fit")
	}
	if c.WeightsFitInBuffer(513 << 10) {
		t.Fatal("513KB should not fit")
	}
}

func TestTaskGraphLinearChain(t *testing.T) {
	c := DefaultConfig()
	var g TaskGraph
	a := g.Add("a", 100, 0)
	b := g.Add("b", 200, 0, a)
	g.Add("c", 50, 0, b)
	makespan, err := g.Schedule(c)
	if err != nil {
		t.Fatal(err)
	}
	if makespan != 350 {
		t.Fatalf("makespan = %d, want 350", makespan)
	}
	if g.Tasks[1].Start != 100 || g.Tasks[2].Start != 300 {
		t.Fatal("chain start times wrong")
	}
}

func TestTaskGraphDoubleBufferingOverlap(t *testing.T) {
	c := DefaultConfig()
	var g TaskGraph
	// 100 compute cycles vs DRAM bytes worth 200 cycles: task takes 200.
	dramBytes := int64(c.DRAMBw * c.DRAMEff * 200 / c.ClockHz)
	g.Add("io-bound", 100, dramBytes)
	makespan, err := g.Schedule(c)
	if err != nil {
		t.Fatal(err)
	}
	if makespan < 199 || makespan > 201 {
		t.Fatalf("makespan = %d, want ~200 (max, not sum)", makespan)
	}
}

func TestTaskGraphDiamondDependency(t *testing.T) {
	c := DefaultConfig()
	var g TaskGraph
	a := g.Add("a", 10, 0)
	b1 := g.Add("b1", 10, 0, a)
	b2 := g.Add("b2", 20, 0, a)
	g.Add("join", 5, 0, b1, b2)
	makespan, err := g.Schedule(c)
	if err != nil {
		t.Fatal(err)
	}
	// Serialized on one worker: 10 + 10 + 20 + 5.
	if makespan != 45 {
		t.Fatalf("makespan = %d, want 45", makespan)
	}
	// The join must start only after both b1 and b2 finished.
	if g.Tasks[3].Start != 40 {
		t.Fatalf("join start = %d, want 40", g.Tasks[3].Start)
	}
}

func TestTaskGraphErrors(t *testing.T) {
	var g TaskGraph
	g.Add("bad", 1, 0, 7)
	if _, err := g.Schedule(DefaultConfig()); err == nil {
		t.Fatal("unknown dependency accepted")
	}
	var g2 TaskGraph
	a := g2.Add("a", 1, 0)
	g2.Tasks[a].Deps = []int{a}
	if _, err := g2.Schedule(DefaultConfig()); err == nil {
		t.Fatal("self dependency accepted")
	}
	// Mutual cycle.
	var g3 TaskGraph
	x := g3.Add("x", 1, 0)
	y := g3.Add("y", 1, 0, x)
	g3.Tasks[x].Deps = []int{y}
	if _, err := g3.Schedule(DefaultConfig()); err == nil {
		t.Fatal("dependency cycle accepted")
	}
}

func TestActivationMap(t *testing.T) {
	m := NewActivationMap(4)
	if m.LiveCount() != 4 {
		t.Fatal("fresh map should be all live")
	}
	m.Kill(1)
	m.Kill(3)
	if m.LiveCount() != 2 {
		t.Fatalf("LiveCount = %d", m.LiveCount())
	}
}

func TestPackingDMARoundTrip(t *testing.T) {
	dma := PackingDMA{UnitLen: 2}
	m := NewActivationMap(3)
	m.Kill(1)
	data := []float32{1, 2, 3, 4, 5, 6}
	packed := dma.Pack(data, m)
	want := []float32{1, 2, 5, 6}
	if len(packed) != 4 {
		t.Fatalf("packed len %d", len(packed))
	}
	for i := range want {
		if packed[i] != want[i] {
			t.Fatalf("packed = %v", packed)
		}
	}
	back := dma.Unpack(packed, m)
	wantBack := []float32{1, 2, 0, 0, 5, 6}
	for i := range wantBack {
		if back[i] != wantBack[i] {
			t.Fatalf("unpacked = %v", back)
		}
	}
}

// Property: Pack/Unpack round-trips live data and zeroes dead data, for
// random activation maps.
func TestPackingDMAProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rnd := seed
		next := func(n int) int {
			rnd += 0x9e3779b97f4a7c15
			z := rnd
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			return int((z ^ (z >> 27)) % uint64(n))
		}
		units := 1 + next(10)
		unitLen := 1 + next(5)
		dma := PackingDMA{UnitLen: unitLen}
		m := NewActivationMap(units)
		for i := 0; i < units; i++ {
			if next(2) == 0 {
				m.Kill(i)
			}
		}
		data := make([]float32, units*unitLen)
		for i := range data {
			data[i] = float32(next(1000)) + 1 // never zero
		}
		back := dma.Unpack(dma.Pack(data, m), m)
		for i := 0; i < units; i++ {
			for j := 0; j < unitLen; j++ {
				v := back[i*unitLen+j]
				if m.Live[i] && v != data[i*unitLen+j] {
					return false
				}
				if !m.Live[i] && v != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestPackingDMAPanicsOnBadLengths(t *testing.T) {
	dma := PackingDMA{UnitLen: 2}
	m := NewActivationMap(2)
	defer func() {
		if recover() == nil {
			t.Fatal("bad pack length did not panic")
		}
	}()
	dma.Pack([]float32{1, 2, 3}, m)
}

func TestReduceBlockInOrder(t *testing.T) {
	rb := NewReduceBlock(7, 2)
	out, err := rb.Accept(Chunk{MsgID: 7, Index: 0, Data: []float32{1, 2}})
	if err != nil || out != nil {
		t.Fatalf("first contribution should buffer: %v %v", out, err)
	}
	out, err = rb.Accept(Chunk{MsgID: 7, Index: 0, Data: []float32{10, 20}})
	if err != nil || out == nil {
		t.Fatalf("second contribution should release: %v %v", out, err)
	}
	if out[0] != 11 || out[1] != 22 {
		t.Fatalf("reduced = %v", out)
	}
	if rb.Adds() != 2 {
		t.Fatalf("adds = %d", rb.Adds())
	}
	if rb.Pending() != 0 {
		t.Fatal("chunk not released")
	}
}

func TestReduceBlockOutOfOrderAcrossChunks(t *testing.T) {
	// Chunks 3 and 1 arrive interleaved from link and local compute — the
	// exact scenario the multiple communication buffers exist for.
	rb := NewReduceBlock(1, 2)
	mustNil := func(c Chunk) {
		t.Helper()
		out, err := rb.Accept(c)
		if err != nil || out != nil {
			t.Fatalf("unexpected release: %v %v", out, err)
		}
	}
	mustNil(Chunk{MsgID: 1, Index: 3, Data: []float32{1}})
	mustNil(Chunk{MsgID: 1, Index: 1, Data: []float32{2}})
	if rb.Pending() != 2 {
		t.Fatalf("pending = %d", rb.Pending())
	}
	out, _ := rb.Accept(Chunk{MsgID: 1, Index: 1, Data: []float32{5}})
	if out == nil || out[0] != 7 {
		t.Fatalf("chunk 1 reduce = %v", out)
	}
	out, _ = rb.Accept(Chunk{MsgID: 1, Index: 3, Data: []float32{10}})
	if out == nil || out[0] != 11 {
		t.Fatalf("chunk 3 reduce = %v", out)
	}
}

func TestReduceBlockErrors(t *testing.T) {
	rb := NewReduceBlock(1, 2)
	if _, err := rb.Accept(Chunk{MsgID: 2, Index: 0, Data: []float32{1}}); err == nil {
		t.Fatal("foreign message accepted")
	}
	rb.Accept(Chunk{MsgID: 1, Index: 0, Data: []float32{1, 2}})
	if _, err := rb.Accept(Chunk{MsgID: 1, Index: 0, Data: []float32{1}}); err == nil {
		t.Fatal("size mismatch accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("contributions<1 accepted")
		}
	}()
	NewReduceBlock(0, 0)
}

// TestReduceBlockResetAndRecycle: a reset block serves a new message with
// nothing pending, a handed-back buffer stores the next first-arriving
// chunk (in place when it is the chunk's own data) but only when its
// length holds the chunk, and rejected chunks report a ChunkError.
func TestReduceBlockResetAndRecycle(t *testing.T) {
	rb := NewReduceBlock(1, 2)
	rb.Accept(Chunk{MsgID: 1, Index: 0, Data: []float32{1}})
	rb.Reset(5)
	if rb.MsgID != 5 || rb.Pending() != 0 || rb.Adds() != 0 {
		t.Fatalf("after Reset: msg %d, %d pending, %d adds", rb.MsgID, rb.Pending(), rb.Adds())
	}
	var ce ChunkError
	if _, err := rb.Accept(Chunk{MsgID: 1, Index: 0, Data: []float32{1}}); !errors.As(err, &ce) || ce.BlockMsg != 5 {
		t.Fatalf("foreign chunk after Reset: %v", err)
	}

	run := []float32{1, 2, 3}
	rb.Recycle(run)
	if out, err := rb.Accept(Chunk{MsgID: 5, Index: 0, Data: run}); out != nil || err != nil {
		t.Fatalf("first arrival released %v, %v", out, err)
	}
	out, err := rb.Accept(Chunk{MsgID: 5, Index: 0, Data: []float32{10, 20, 30}})
	if err != nil || &out[0] != &run[0] {
		t.Fatalf("reduced chunk not stored in the handed-back buffer: %v", err)
	}
	if run[0] != 11 || run[1] != 22 || run[2] != 33 {
		t.Fatalf("in-place reduce = %v", run)
	}

	// A buffer too small for the chunk is not used.
	small := make([]float32, 1)
	rb.Recycle(small)
	rb.Accept(Chunk{MsgID: 5, Index: 1, Data: []float32{4, 5}})
	out, _ = rb.Accept(Chunk{MsgID: 5, Index: 1, Data: []float32{1, 1}})
	if len(out) != 2 || out[0] != 5 || out[1] != 6 || small[0] != 0 {
		t.Fatalf("reduce past a too-small hand-back = %v (hand-back %v)", out, small)
	}
	// Nor is one whose capacity, but not length, holds the chunk: the
	// memory past its length still belongs to the caller.
	big := []float32{0, -1}
	rb.Recycle(big[:1])
	rb.Accept(Chunk{MsgID: 5, Index: 3, Data: []float32{4, 5}})
	out, _ = rb.Accept(Chunk{MsgID: 5, Index: 3, Data: []float32{1, 1}})
	if len(out) != 2 || out[0] != 5 || out[1] != 6 || big[0] != 0 || big[1] != -1 {
		t.Fatalf("reduce past a short hand-back = %v (hand-back %v)", out, big)
	}
	if _, err := rb.Accept(Chunk{MsgID: 5, Index: 2, Data: []float32{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Accept(Chunk{MsgID: 5, Index: 2, Data: []float32{1, 2}}); !errors.As(err, &ce) || ce.Stored != 1 {
		t.Fatalf("size mismatch: %v", err)
	}
}

func layerSpec() LayerGraphSpec {
	return LayerGraphSpec{
		Tr:    winograd.F2x2_3x3,
		P:     conv.Params{In: 64, Out: 64, K: 3, Pad: 1, H: 14, W: 14},
		Batch: 256,
		Ng:    16,
		Nc:    16,
	}
}

func TestBuildLayerGraphStructure(t *testing.T) {
	lg, err := BuildLayerGraph(DefaultConfig(), layerSpec())
	if err != nil {
		t.Fatal(err)
	}
	// 16 groups over a 4x4 tile: one element per worker.
	if len(lg.FwdDots) != 1 || len(lg.BwdDots) != 1 || len(lg.GradDots) != 1 {
		t.Fatalf("dot task counts: %d/%d/%d", len(lg.FwdDots), len(lg.BwdDots), len(lg.GradDots))
	}
	if len(lg.ReduceChunks) == 0 {
		t.Fatal("no collective chunks")
	}
	makespan, err := lg.Graph.Schedule(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if makespan <= 0 {
		t.Fatal("empty makespan")
	}
	// Phase ordering on the schedule: transform < dots < gather < act.
	tasks := lg.Graph.Tasks
	if !(tasks[lg.InputTransform].Finish <= tasks[lg.FwdDots[0]].Start) {
		t.Fatal("dot started before input transform finished")
	}
	if !(tasks[lg.FwdDots[0]].Finish <= tasks[lg.Gather].Start) {
		t.Fatal("gather started before dots finished")
	}
	if !(tasks[lg.Gather].Finish <= tasks[lg.Activation].Start) {
		t.Fatal("activation started before gather")
	}
	// Every reduce chunk starts after every grad dot.
	for _, c := range lg.ReduceChunks {
		for _, g := range lg.GradDots {
			if tasks[c].Start < tasks[g].Finish {
				t.Fatal("collective chunk started before grad dots")
			}
		}
	}
}

func TestBuildLayerGraphFourGroups(t *testing.T) {
	spec := layerSpec()
	spec.Ng = 4
	lg, err := BuildLayerGraph(DefaultConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.FwdDots) != 4 {
		t.Fatalf("4 groups over 16 elements should give 4 dot tasks, got %d", len(lg.FwdDots))
	}
	m4, err := lg.Graph.Schedule(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec.Ng = 16
	lg16, _ := BuildLayerGraph(DefaultConfig(), spec)
	m16, err := lg16.Graph.Schedule(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Same cluster count but 4x the elements per worker: more dot work.
	if m4 <= m16 {
		t.Fatalf("4-group makespan %d should exceed 16-group %d", m4, m16)
	}
}

func TestBuildLayerGraphValidation(t *testing.T) {
	spec := layerSpec()
	spec.Ng = 0
	if _, err := BuildLayerGraph(DefaultConfig(), spec); err == nil {
		t.Fatal("Ng=0 accepted")
	}
	spec = layerSpec()
	spec.P.K = 5
	if _, err := BuildLayerGraph(DefaultConfig(), spec); err == nil {
		t.Fatal("kernel/transform mismatch accepted")
	}
	spec = layerSpec()
	spec.P.In = 0
	if _, err := BuildLayerGraph(DefaultConfig(), spec); err == nil {
		t.Fatal("invalid layer accepted")
	}
}

func tinyNet() model.Network {
	return model.Network{
		Name:  "tiny",
		Batch: 64,
		Layers: []model.Layer{
			{Name: "a", P: conv.Params{In: 16, Out: 16, K: 3, Pad: 1, H: 14, W: 14}},
			{Name: "b", P: conv.Params{In: 16, Out: 32, K: 3, Pad: 1, H: 14, W: 14}, Repeat: 2},
		},
	}
}

func TestBuildNetworkGraphStructure(t *testing.T) {
	cfg := DefaultConfig()
	ng, err := BuildNetworkGraph(cfg, tinyNet(), 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 3 expanded layers × 2 iterations.
	if len(ng.Layers) != 6 {
		t.Fatalf("expanded layers = %d, want 6", len(ng.Layers))
	}
	makespan, err := ng.Graph.Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if makespan <= 0 {
		t.Fatal("empty makespan")
	}
	tasks := ng.Graph.Tasks

	// Forward chaining: layer 1's transform after layer 0's activation.
	if tasks[ng.Layers[1].InputTransform].Start < tasks[ng.Layers[0].Activation].Finish {
		t.Fatal("layer chaining violated")
	}
	// Backward chaining: layer 0's grad transform after layer 1's bdots.
	for _, bd := range ng.Layers[1].BwdDots {
		if tasks[ng.Layers[0].GradTransform].Start < tasks[bd].Finish {
			t.Fatal("backward chaining violated")
		}
	}
	// Weight dependency: iteration 2 of layer 0 (index 3) starts its dots
	// only after iteration 1's collective finished.
	for _, d := range ng.Layers[3].FwdDots {
		for _, c := range ng.Layers[0].ReduceChunks {
			if tasks[d].Start < tasks[c].Finish {
				t.Fatal("weight dependency to previous iteration violated")
			}
		}
	}
}

func TestBuildNetworkGraphMakespanScalesWithIterations(t *testing.T) {
	cfg := DefaultConfig()
	m := func(iters int) int64 {
		g, err := BuildNetworkGraph(cfg, tinyNet(), 4, 4, iters)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := g.Graph.Schedule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	m1, m2 := m(1), m(2)
	if m2 < 2*m1 || m2 > 2*m1+m1/10 {
		t.Fatalf("2-iteration makespan %d not ~2x single %d", m2, m1)
	}
}

func TestBuildNetworkGraphErrors(t *testing.T) {
	if _, err := BuildNetworkGraph(DefaultConfig(), tinyNet(), 4, 4, 0); err == nil {
		t.Fatal("0 iterations accepted")
	}
	bad := tinyNet()
	bad.Layers[0].P.K = 7
	if _, err := BuildNetworkGraph(DefaultConfig(), bad, 4, 4, 1); err == nil {
		t.Fatal("unsupported kernel accepted")
	}
}
