package quant

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"mptwino/internal/tensor"
)

// laneGrids are the (regions, bits) grids the lane kernel is checked on:
// the default (4,6), the paper's 5-bit codes, one region, many regions,
// the narrowest grid and the widest step count.
var laneGrids = [][2]int{{4, 5}, {4, 6}, {1, 5}, {2, 6}, {8, 9}, {2, 2}, {1, 16}}

// laneSigmas span the calibrations: ordinary, tiny (EstimateSigma's
// zero-variance value), huge, and subnormal Δ.
var laneSigmas = []float32{1, 0.37, 1e-12, 3e30, 1e-40}

// laneCounts are the vector lengths quantizeLanes is called with: one
// lane, a tail alone, one block, a block and a tail, and the engine's
// 48 channels with and without a tail.
var laneCounts = []int{1, 7, 8, 9, 48, 53}

// restoreTier re-applies the process's configured GEMM tier when the test
// finishes, so tier-switching tests leave the suite on the tier a CI leg
// forced.
func restoreTier(tb testing.TB) {
	tb.Cleanup(func() {
		if err := tensor.SelectGemmKernel(os.Getenv(tensor.EnvGemmKernel)); err != nil {
			tb.Fatal(err)
		}
	})
}

// laneInputs returns the values the kernel must quantize exactly as
// Quantize does: every grid point of q up to a few steps past the top,
// each with its three float32 neighbours on either side, of both signs;
// random bit patterns and Gaussian values; NaN of both signs; ±Inf; ±0;
// and values far past the range.
func laneInputs(q *Quantizer, rng *rand.Rand) []float32 {
	var vs []float32
	top := q.topUnits()
	for g := 0; g <= top+4<<(q.Regions-1); {
		p := q.Delta * float32(g)
		for _, v := range []float32{p, -p} {
			up, down := v, v
			vs = append(vs, v)
			for i := 0; i < 3; i++ {
				up = math.Nextafter32(up, float32(math.Inf(1)))
				down = math.Nextafter32(down, float32(math.Inf(-1)))
				vs = append(vs, up, down)
			}
		}
		g += q.stepOfGridUnits(g)
	}
	for i := 0; i < 4096; i++ {
		vs = append(vs, math.Float32frombits(rng.Uint32()), q.Sigma*float32(rng.NormFloat64()))
	}
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	h := q.HalfRange()
	for _, v := range []float32{nan, -nan, math.Float32frombits(0x7f800001), math.Float32frombits(0xffc01234),
		inf, -inf, 0, float32(math.Copysign(0, -1)),
		1.5 * h, 2 * h, 1e10 * h, math.MaxFloat32, math.SmallestNonzeroFloat32} {
		vs = append(vs, v, -v)
	}
	rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	return vs
}

// sameFloat compares float32 bits, any NaN matching any NaN.
func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// checkLanesMatchQuantize runs vs through quantizeLanes on every tier this
// CPU runs, in vectors cycling through laneCounts, over overflow flags
// preset at random, and requires Quantize's qv and res bits and the preset
// flags OR Quantize's overflow, lane for lane.
func checkLanesMatchQuantize(t *testing.T, q *Quantizer, vs []float32, preset []bool) {
	t.Helper()
	wantQ, wantR := make([]float32, len(vs)), make([]float32, len(vs))
	wantOv := make([]bool, len(vs))
	for i, v := range vs {
		var o bool
		wantQ[i], wantR[i], o = q.Quantize(v)
		wantOv[i] = preset[i] || o
	}
	qv, res, ov := make([]float32, len(vs)), make([]float32, len(vs)), make([]bool, len(vs))
	for _, tier := range tensor.GemmKernels() {
		if err := tensor.SelectGemmKernel(tier); err != nil {
			t.Fatal(err)
		}
		if tensor.RowKernelAVX2() && len(vs) >= 8 {
			if n := q.quantizeBlocks(vs[:8], qv, res, ov); n != 8 {
				t.Fatalf("%s tier: the AVX2 kernel took %d of 8 lanes", tier, n)
			}
		}
		copy(ov, preset)
		for i, k := 0, 0; i < len(vs); k++ {
			n := min(laneCounts[k%len(laneCounts)], len(vs)-i)
			q.quantizeLanes(vs[i:i+n], qv[i:], res[i:], ov[i:])
			i += n
		}
		for i, v := range vs {
			if !sameFloat(qv[i], wantQ[i]) || !sameFloat(res[i], wantR[i]) || ov[i] != wantOv[i] {
				t.Fatalf("%s tier, Δ=%v grid (%d,%d), lane %d: v=%v (%#08x) gives qv %v res %v ov %v; Quantize %v %v %v (preset %v)",
					tier, q.Delta, q.Regions, q.Bits, i, v, math.Float32bits(v),
					qv[i], res[i], ov[i], wantQ[i], wantR[i], wantOv[i], preset[i])
			}
		}
	}
}

// randomPreset returns n overflow flags, about one in five set.
func randomPreset(rng *rand.Rand, n int) []bool {
	ov := make([]bool, n)
	for i := range ov {
		ov[i] = rng.Intn(5) == 0
	}
	return ov
}

// TestQuantizeLanesMatchesQuantize: on every tier, quantizeLanes is
// Quantize lane for lane — qv and res bit for bit (NaN as NaN), every
// overflow flagged, and no preset flag cleared — over grid points and
// their neighbours, random bits, NaN, ±Inf, ±0 and values past the range,
// on seven grids at five calibrations, at lane counts with and without a
// tail. Two cases force a Δ that Calibrate rejects, +Inf and 0, so that
// the kernel's NaN products and NaN quotients are pinned too.
func TestQuantizeLanesMatchesQuantize(t *testing.T) {
	restoreTier(t)
	rng := rand.New(rand.NewSource(20))
	for _, g := range laneGrids {
		for _, sigma := range laneSigmas {
			q := MustQuantizer(g[0], g[1], sigma)
			vs := laneInputs(q, rng)
			checkLanesMatchQuantize(t, q, vs, randomPreset(rng, len(vs)))
		}
	}
	for _, delta := range []float32{float32(math.Inf(1)), 0} {
		q := MustQuantizer(4, 6, 1)
		vs := laneInputs(q, rng)
		q.Delta = delta
		checkLanesMatchQuantize(t, q, vs, randomPreset(rng, len(vs)))
	}
}

// FuzzQuantizeLanesMatchesQuantize: for any grid of laneGrids, any σ
// Calibrate accepts and any lane values, quantizeLanes gives Quantize's
// bits and overflow flags on every tier, and keeps preset flags set.
func FuzzQuantizeLanesMatchesQuantize(f *testing.F) {
	f.Add(uint8(1), float32(1), fuzzBytes(0.5, -1.2, 2.0, 0.1, -0.3, 0.7, 1.5, -2.2, 0, 3.1, -0.01, 0.99, -1.5))
	f.Add(uint8(3), float32(0.37), fuzzBytes(-4, 4, 100, -100, 0.0625, -0.0625, 1e-6, -1e-6, 2.5))
	f.Add(uint8(6), float32(1e-40), fuzzBytes(1e-44, -1e-44, 3e-45, -3e-45, 0, 1, -1, 2e-45))
	f.Add(uint8(5), float32(3e30), fuzzBytes(float32(math.Inf(-1)), float32(math.NaN()), 1e31, -1e31, 4e30, -4e30, 0, -0.5))
	restoreTier(f)
	f.Fuzz(func(t *testing.T, grid uint8, sigma float32, data []byte) {
		g := laneGrids[int(grid)%len(laneGrids)]
		q := MustQuantizer(g[0], g[1], 1)
		if q.Calibrate(sigma) != nil {
			return
		}
		vs := make([]float32, min(len(data)/4, 256))
		preset := make([]bool, len(vs))
		for i := range vs {
			w := binary.LittleEndian.Uint32(data[4*i:])
			vs[i] = math.Float32frombits(w)
			preset[i] = w%7 == 0
		}
		checkLanesMatchQuantize(t, q, vs, preset)
	})
}

// BenchmarkQuantizeLanes times quantizeLanes on each tier this CPU runs
// (portable and sse2 run Quantize per lane, avx2 the AVX2 kernel)
// at 8, 32 and 48 lanes of Gaussian values, the channel counts the engine
// predicts over.
func BenchmarkQuantizeLanes(b *testing.B) {
	restoreTier(b)
	q := MustQuantizer(4, 6, 1)
	rng := rand.New(rand.NewSource(1))
	v := make([]float32, 48)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	qv, res, ov := make([]float32, len(v)), make([]float32, len(v)), make([]bool, len(v))
	for _, tier := range tensor.GemmKernels() {
		for _, n := range []int{8, 32, 48} {
			b.Run(fmt.Sprintf("%s/lanes=%d", tier, n), func(b *testing.B) {
				if err := tensor.SelectGemmKernel(tier); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < b.N; i++ {
					q.quantizeLanes(v[:n], qv, res, ov)
				}
			})
		}
	}
}
