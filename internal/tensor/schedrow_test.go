package tensor_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// The schedule-row kernel is checked from outside the package so that the
// coefficients can come from the winograd package's transforms, which
// import tensor.

// restoreTier re-applies the process's configured tier (environment
// override included) when the test finishes, so tier-switching tests leave
// the suite in the state the CI leg forced.
func restoreTier(tb testing.TB) {
	tb.Cleanup(func() {
		if err := tensor.SelectGemmKernel(os.Getenv(tensor.EnvGemmKernel)); err != nil {
			tb.Fatal(err)
		}
	})
}

func useTier(tb testing.TB, name string) {
	tb.Helper()
	if err := tensor.SelectGemmKernel(name); err != nil {
		tb.Fatal(err)
	}
}

// rowTerms returns the rows of m as schedule rows: each row's nonzero
// coefficients in ascending k, as the winograd package compiles them.
func rowTerms(m *tensor.Mat) [][]tensor.RowTerm {
	rows := make([][]tensor.RowTerm, m.Rows)
	for i := range rows {
		for k := 0; k < m.Cols; k++ {
			if c := m.At(i, k); c != 0 {
				rows[i] = append(rows[i], tensor.RowTerm{K: int32(k), C: c})
			}
		}
	}
	return rows
}

var rowTestTransforms = []*winograd.Transform{
	winograd.F2x2_3x3, winograd.F4x4_3x3, winograd.F6x6_3x3, winograd.F2x2_5x5,
}

// scheduleRows returns every schedule row of the transforms' six matrices.
func scheduleRows() [][]tensor.RowTerm {
	var rows [][]tensor.RowTerm
	for _, tr := range rowTestTransforms {
		for _, m := range []*tensor.Mat{tr.G, tr.GT, tr.B, tr.BT, tr.A, tr.AT} {
			rows = append(rows, rowTerms(m)...)
		}
	}
	return rows
}

// coefficientPool is every distinct coefficient of the schedules, plus ±1
// and ±½.
func coefficientPool() []float32 {
	seen := map[float32]bool{}
	var pool []float32
	add := func(c float32) {
		if !seen[c] {
			seen[c] = true
			pool = append(pool, c)
		}
	}
	for _, c := range []float32{1, -1, 0.5, -0.5} {
		add(c)
	}
	for _, row := range scheduleRows() {
		for _, t := range row {
			add(t.C)
		}
	}
	return pool
}

// specialValues are the operand values the kernel must treat exactly as
// the Go loop does.
var specialValues = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff), // largest subnormals
	math.MaxFloat32, -math.MaxFloat32, math.MaxFloat32 / 2, -math.MaxFloat32 / 3,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	1, -1, 0.5, 3,
}

// randomOperand fills x with a mix of the special values and normal values.
func randomOperand(rng *rand.Rand, x []float32) {
	for i := range x {
		if rng.Intn(4) == 0 {
			x[i] = specialValues[rng.Intn(len(specialValues))]
		} else {
			x[i] = float32(rng.NormFloat64())
		}
	}
}

// randomTerms draws nt terms with ascending k below rows, coefficients from
// pool.
func randomTerms(rng *rand.Rand, nt, rows int, pool []float32) []tensor.RowTerm {
	ks := rng.Perm(rows)[:nt]
	for i := 1; i < len(ks); i++ { // insertion sort: ascending k
		for j := i; j > 0 && ks[j] < ks[j-1]; j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
	terms := make([]tensor.RowTerm, nt)
	for i, k := range ks {
		terms[i] = tensor.RowTerm{K: int32(k), C: pool[rng.Intn(len(pool))]}
	}
	return terms
}

// sameFloats reports whether got matches want bit for bit, NaN matching
// any NaN, and describes the first mismatch.
func sameFloats(want, got []float32) (bool, string) {
	for j := range want {
		w, g := want[j], got[j]
		if w != w && g != g {
			continue
		}
		if math.Float32bits(w) != math.Float32bits(g) {
			return false, fmt.Sprintf("lane %d: want %v (%#08x), got %v (%#08x)",
				j, w, math.Float32bits(w), g, math.Float32bits(g))
		}
	}
	return true, ""
}

// rowOnEveryTier runs one schedule row on the Go loop (the portable tier)
// and on every tier this CPU offers, failing on any difference. dst starts
// as garbage on each tier: the row is written, not added to.
func rowOnEveryTier(t *testing.T, what string, terms []tensor.RowTerm, x []float32, n, xc int) []float32 {
	t.Helper()
	useTier(t, "portable")
	want := make([]float32, n)
	for j := range want {
		want[j] = float32(j) + 0.25
	}
	tensor.SchedRowInto(want, terms, x, xc)
	for _, tier := range tensor.GemmKernels() {
		useTier(t, tier)
		got := make([]float32, n)
		for j := range got {
			got[j] = float32(math.NaN())
		}
		tensor.SchedRowInto(got, terms, x, xc)
		if ok, diff := sameFloats(want, got); !ok {
			t.Fatalf("%s, tier %s, n=%d xc=%d terms=%v: %s", what, tier, n, xc, terms, diff)
		}
	}
	return want
}

var rowLaneCounts = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 31, 32, 33, 48, 100}

// TestSchedRowTiersMatchGoLoop holds every tier's schedule-row kernel to
// the Go reference loop bit for bit (NaN as NaN): every lane count around
// the kernel's 32/16/8/4/1 blocks, 0–6 terms, operand rows wider than the
// lane vector, the real schedule rows of four transforms and random rows
// over their coefficients, on operands full of ±0, subnormals, ±Inf, NaN
// and values near the float32 maximum.
func TestSchedRowTiersMatchGoLoop(t *testing.T) {
	restoreTier(t)
	rng := rand.New(rand.NewSource(17))
	pool := coefficientPool()
	sched := scheduleRows()
	for _, n := range rowLaneCounts {
		for _, pad := range []int{0, 3} {
			xc := n + pad
			const rows = 8
			x := make([]float32, rows*xc)
			randomOperand(rng, x)
			for _, terms := range sched {
				rowOnEveryTier(t, "schedule row", terms, x, n, xc)
			}
			for nt := 0; nt <= 6; nt++ {
				for rep := 0; rep < 4; rep++ {
					rowOnEveryTier(t, "random row", randomTerms(rng, nt, rows, pool), x, n, xc)
				}
			}
		}
	}
}

// TestSchedRowAllZeroRowIsPositiveZero: a row whose operands are all ±0
// is +0 in every lane, on every tier, as the Go loop's +0-started chain
// gives.
func TestSchedRowAllZeroRowIsPositiveZero(t *testing.T) {
	restoreTier(t)
	rng := rand.New(rand.NewSource(18))
	pool := coefficientPool()
	negZero := float32(math.Copysign(0, -1))
	for _, n := range rowLaneCounts {
		x := make([]float32, 6*n)
		for i := range x {
			if rng.Intn(2) == 0 {
				x[i] = negZero
			}
		}
		for nt := 0; nt <= 6; nt++ {
			got := rowOnEveryTier(t, "all-zero row", randomTerms(rng, nt, 6, pool), x, n, n)
			for j, v := range got {
				if math.Float32bits(v) != 0 {
					t.Fatalf("n=%d nt=%d lane %d: %v (%#08x), want +0", n, nt, j, v, math.Float32bits(v))
				}
			}
		}
	}
}

// TestSchedRowShortOperandPanics: on every tier, an operand too short for
// some term's row panics before the kernel runs — dst is left untouched,
// and the assembly never reads past x.
func TestSchedRowShortOperandPanics(t *testing.T) {
	restoreTier(t)
	terms := []tensor.RowTerm{{K: 0, C: 1}, {K: 2, C: -0.5}, {K: 3, C: 2}}
	for _, tier := range tensor.GemmKernels() {
		useTier(t, tier)
		for _, n := range []int{1, 8, 33} {
			// The last term's row needs x[3n : 4n]; back x by a longer
			// buffer, so a read past x would find values rather than fault.
			buf := make([]float32, 5*n)
			for i := range buf {
				buf[i] = 1
			}
			x := buf[:4*n-1]
			dst := make([]float32, n)
			for j := range dst {
				dst[j] = 7
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("tier %s, n=%d: no panic on a short operand", tier, n)
					}
				}()
				tensor.SchedRowInto(dst, terms, x, n)
			}()
			for j, v := range dst {
				if v != 7 {
					t.Fatalf("tier %s, n=%d: lane %d written (%v) before the panic", tier, n, j, v)
				}
			}
		}
	}
}

// FuzzSchedRowMatchesGoLoop drives random lane counts, term lists,
// coefficients (from the schedules or arbitrary bit patterns) and operand
// bits through every tier, requiring the Go loop's result (NaN as NaN).
func FuzzSchedRowMatchesGoLoop(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(4), uint8(0), false)
	f.Add(int64(2), uint8(48), uint8(5), uint8(3), true)
	f.Add(int64(3), uint8(33), uint8(6), uint8(1), false)
	f.Add(int64(4), uint8(1), uint8(0), uint8(0), true)
	pool := coefficientPool()
	f.Fuzz(func(t *testing.T, seed int64, nb, ntb, padb uint8, rawBits bool) {
		restoreTier(t)
		n := int(nb)%200 + 1
		nt := int(ntb) % 7
		xc := n + int(padb)%8
		rng := rand.New(rand.NewSource(seed))
		const rows = 8
		x := make([]float32, rows*xc)
		randomOperand(rng, x)
		if rawBits {
			for i := range x {
				if rng.Intn(2) == 0 {
					x[i] = math.Float32frombits(rng.Uint32())
				}
			}
		}
		terms := randomTerms(rng, nt, rows, pool)
		if rawBits {
			for i := range terms {
				if rng.Intn(3) == 0 {
					terms[i].C = math.Float32frombits(rng.Uint32())
				}
			}
		}
		rowOnEveryTier(t, "fuzz row", terms, x, n, xc)
	})
}

// BenchmarkSchedRow is the row-kernel probe: one SchedRowInto call per op,
// per tier, over the row shapes (lanes × terms) the perfbench workloads
// run, 12 to 864 lanes of 3 to 5 terms, and the weight transform's 3 × 3
// rows. The coefficients are F(4×4,3×3) Aᵀ, Bᵀ and G rows. portable and
// sse2 time the Go loop, avx2 the AVX2 kernel.
//
//	go test -run '^$' -bench SchedRow -count 5 ./internal/tensor/
func BenchmarkSchedRow(b *testing.B) {
	tr := winograd.F4x4_3x3
	at, bt, g := rowTerms(tr.AT), rowTerms(tr.BT), rowTerms(tr.G)
	shapes := []struct {
		lanes int
		terms []tensor.RowTerm
	}{
		{48, at[1]}, {48, at[3]}, {32, at[1]}, {32, at[3]},
		{192, at[3]}, {288, at[3]}, {864, at[1]},
		{12, at[1]}, {12, bt[0]}, {3, g[3]},
	}
	restoreTier(b)
	for _, tier := range tensor.GemmKernels() {
		useTier(b, tier)
		for _, s := range shapes {
			rows := int(s.terms[len(s.terms)-1].K) + 1
			x := make([]float32, rows*s.lanes)
			for i := range x {
				x[i] = float32(i%17) - 8
			}
			dst := make([]float32, s.lanes)
			b.Run(fmt.Sprintf("%s/%dx%d", tier, s.lanes, len(s.terms)), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tensor.SchedRowInto(dst, s.terms, x, s.lanes)
				}
			})
		}
	}
}
