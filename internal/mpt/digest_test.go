package mpt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"mptwino/internal/conv"
	"mptwino/internal/model"
	"mptwino/internal/parallel"
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// alexBody is AlexNet's conv2–conv5 body as the perfbench workloads run
// it: every layer at 13×13 so the four chain, channels divided by 8.
func alexBody() []conv.Params {
	var out []conv.Params
	for _, l := range model.AlexNet().Layers {
		p := l.P
		p.In /= 8
		p.Out /= 8
		p.H, p.W = 13, 13
		out = append(out, p)
	}
	return out
}

// alexGrids returns base with the planned AlexNet grids applied per layer
// (internal/planner/testdata/plan_alexnet.tsv at batch 8): Ng=2 on conv2,
// Ng=32 at F(4×4) on conv3–conv5, nc clusters on every layer.
func alexGrids(base Config, nc int) []Config {
	cfgs := make([]Config, 4)
	for i := range cfgs {
		cfgs[i] = base
		cfgs[i].Nc = nc
		cfgs[i].Ng, cfgs[i].TileM = 32, 4
	}
	cfgs[0].Ng, cfgs[0].TileM = 2, 0
	return cfgs
}

// digestBatch and digestLR keep five steps on a descending, finite
// trajectory (at lr = 5e-6 the loss already rises on the third step).
const (
	digestBatch = 8
	digestLR    = 1e-6
)

type digestWriter struct{ h hash.Hash }

func (d digestWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d digestWriter) floats(data []float32) {
	for _, v := range data {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		d.h.Write(b[:])
	}
}

func (d digestWriter) traffic(t Traffic) {
	for _, v := range []int64{t.ScatterBytes, t.ScatterRawBytes, t.GatherBytes, t.PredictBytes,
		t.CollectiveBytes, t.SkippedTiles, t.TotalTiles} {
		d.u64(uint64(v))
	}
}

// netDigest hashes everything a training run and a predicted inference
// pass produce: five TrainStepMSE losses (float bits), the final
// Winograd-domain weights and every engine's Traffic counters, then — on a
// w_mp++ twin (prediction and zero-skip on) whose pre-activations lean
// negative — two chained FpropReLU passes' outputs with each engine's
// counters (skipped and total tiles included).
func netDigest(t *testing.T, cfgs []Config) string {
	t.Helper()
	params := alexBody()
	d := digestWriter{sha256.New()}

	net, err := NewNetConfigs(params, cfgs, tensor.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(6)
	first, last := params[0], params[len(params)-1]
	x := tensor.New(digestBatch, first.In, first.H, first.W)
	target := tensor.New(digestBatch, last.Out, last.OutH(), last.OutW())
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(target, 0, 1)
	for s := 0; s < 5; s++ {
		loss, err := net.TrainStepMSE(x, target, digestLR)
		if err != nil {
			t.Fatal(err)
		}
		d.u64(math.Float64bits(loss))
	}
	for _, e := range net.Engines {
		for _, el := range e.Weights().El {
			d.floats(el.Data)
		}
		d.traffic(e.Traffic)
	}

	pcfgs := make([]Config, len(cfgs))
	for i, c := range cfgs {
		c.Predict, c.ZeroSkip = true, true
		pcfgs[i] = c
	}
	pnet, err := NewNetConfigs(params, pcfgs, tensor.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range pnet.Engines {
		p := e.P
		ws := tensor.New(p.Out, p.In, p.K, p.K)
		rng.FillHe(ws, p.In*p.K*p.K)
		for i := range ws.Data {
			ws.Data[i] -= 0.005
		}
		e.SetWeights(winograd.TransformWeights(e.Tr, ws))
	}
	xin := tensor.New(digestBatch, first.In, first.H, first.W)
	rng.FillUniform(xin, 0, 1)
	for pass := 0; pass < 2; pass++ {
		cur := xin
		for _, e := range pnet.Engines {
			y, err := e.FpropReLU(cur)
			if err != nil {
				t.Fatal(err)
			}
			d.floats(y.Data)
			cur = y
		}
	}
	for _, e := range pnet.Engines {
		d.traffic(e.Traffic)
	}
	return hex.EncodeToString(d.h.Sum(nil))
}

// TestAlexNetBodyGoldenDigest pins the numeric outcome of the perfbench
// AlexNet body — losses, weights, traffic, predicted outputs and skip
// counts — on the planned grids, on one cluster, and on a load-aware
// straggler profile, at worker counts {1, 2, 8}. Any change to the tile
// transforms, the cluster fan-out or the ring all-reduce that moves a
// single bit fails here, on every GEMM tier.
func TestAlexNetBodyGoldenDigest(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfgs []Config
		want string
	}{
		{"planned", alexGrids(Config{}, 8), goldenPlanned},
		{"nc1", alexGrids(Config{}, 1), goldenNc1},
		{"speeds", alexGrids(Config{Speeds: []float64{1, 0.25, 2, 0.75}}, 4), goldenSpeeds},
	} {
		var first string
		for _, workers := range []int{1, 2, 8} {
			prev := parallel.SetDefaultWorkers(workers)
			got := netDigest(t, tc.cfgs)
			parallel.SetDefaultWorkers(prev)
			if first == "" {
				first = got
			} else if got != first {
				t.Errorf("%s: workers=%d digest %s, workers=1 %s", tc.name, workers, got, first)
			}
			if got != tc.want {
				t.Errorf("%s: workers=%d digest %s, golden %s", tc.name, workers, got, tc.want)
			}
		}
	}
}

// Goldens recorded on the per-tile transforms and the sequential cluster
// loop (auto-dispatched GEMM tier).
const (
	goldenPlanned = "ee260bea34860560c339f7101609236890687fa5bd1079ab2c286251ae34d5b0"
	goldenNc1     = "1fb3be499abfa0d0d5289ed3cf56e9f874a804d2698c410f09c7b0d6404b9f72"
	goldenSpeeds  = "c22d7099f9b3f975a590f932adf366121895612d1de20ef202b3d986e2f4ab40"
)
