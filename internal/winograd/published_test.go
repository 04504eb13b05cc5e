package winograd

import (
	"math"
	"math/big"
	"testing"
)

// publishedTransform is F(m×m, 3×3) as a published implementation writes
// it (SNIPPETS.md), with the diagonal scaling that maps it onto ours: our
// row j of Bᵀ is b[j] times the published row, our row j of G is g[j]
// times it, and our column j of Aᵀ is d[j] times it. Cook–Toom point
// choices and normalizations differ by exactly such a scaling of the T
// Winograd elements, which leaves y = Aᵀ[(G·w·Gᵀ) ⊙ (Bᵀ·x·B)]A unchanged
// when d[j]·g[j]·b[j] = 1.
type publishedTransform struct {
	source    string
	tr        *Transform
	bt, g, at [][]float32
	b, gs, d  []*big.Rat
}

func rats(vs ...string) []*big.Rat {
	out := make([]*big.Rat, len(vs))
	for i, v := range vs {
		r, ok := new(big.Rat).SetString(v)
		if !ok {
			panic(v)
		}
		out[i] = r
	}
	return out
}

// f23Published is F(2×2,3×3) in snippet 2 (convwinograd.py's F23) and in
// snippet 3 (get_transform_matrices(2), whose B, G and A are given
// transposed or as is): the same Bᵀ, G and Aᵀ in both.
var f23Published = publishedTransform{
	tr: F2x2_3x3,
	bt: [][]float32{
		{1, 0, -1, 0},
		{0, 1, 1, 0},
		{0, -1, 1, 0},
		{0, 1, 0, -1},
	},
	g: [][]float32{
		{1, 0, 0},
		{1.0 / 2, 1.0 / 2, 1.0 / 2},
		{1.0 / 2, -1.0 / 2, 1.0 / 2},
		{0, 0, 1},
	},
	at: [][]float32{
		{1, 1, 1, 0},
		{0, 1, -1, -1},
	},
	b:  rats("1", "1/2", "1/2", "-1"),
	gs: rats("1", "2", "2", "1"),
	d:  rats("1", "1", "1", "-1"),
}

// f43Published is F(4×4,3×3) in snippet 3 (get_transform_matrices(4)).
var f43Published = publishedTransform{
	source: "snippet 3",
	tr:     F4x4_3x3,
	bt: [][]float32{
		{4, 0, -5, 0, 1, 0},
		{0, -4, -4, 1, 1, 0},
		{0, 4, -4, -1, 1, 0},
		{0, -2, -1, 2, 1, 0},
		{0, 2, -1, -2, 1, 0},
		{0, 4, 0, -5, 0, 1},
	},
	g: [][]float32{
		{1.0 / 4, 0, 0},
		{-1.0 / 6, -1.0 / 6, -1.0 / 6},
		{-1.0 / 6, 1.0 / 6, -1.0 / 6},
		{1.0 / 24, 1.0 / 12, 1.0 / 6},
		{1.0 / 24, -1.0 / 12, 1.0 / 6},
		{0, 0, 1},
	},
	at: [][]float32{
		{1, 1, 1, 1, 1, 0},
		{0, 1, -1, 2, -2, 0},
		{0, 1, 1, 4, 4, 0},
		{0, 1, -1, 8, -8, 1},
	},
	b:  rats("1/4", "-1/6", "-1/6", "1/24", "1/24", "1"),
	gs: rats("4", "-6", "-6", "24", "24", "1"),
	d:  rats("1", "1", "1", "1", "1", "1"),
}

// TestTransformsMatchPublishedMatrices checks our Cook–Toom F(2×2,3×3) and
// F(4×4,3×3) against the matrices of two published implementations: every
// entry of Bᵀ, G and Aᵀ equals the published one times its element's
// scale, to one float32 ulp, zeros exactly, and the scales of every
// Winograd element multiply to 1. The predictor's Aᵀ⁺/Aᵀ⁻ split is built
// from these Aᵀ; ours is the published F(4×4) Aᵀ exactly, and the
// F(2×2) one up to the sign of its last column.
func TestTransformsMatchPublishedMatrices(t *testing.T) {
	f23snippet2, f23snippet3 := f23Published, f23Published
	f23snippet2.source, f23snippet3.source = "snippet 2", "snippet 3"
	for _, pt := range []publishedTransform{f23snippet2, f23snippet3, f43Published} {
		tr := pt.tr
		one := big.NewRat(1, 1)
		for j := 0; j < tr.T; j++ {
			if p := new(big.Rat).Mul(pt.b[j], pt.gs[j]); p.Mul(p, pt.d[j]).Cmp(one) != 0 {
				t.Fatalf("%s %s element %d: scales b·g·d = %v, want 1", tr, pt.source, j, p)
			}
		}
		check := func(name string, i, j int, ours, published float32, scale *big.Rat) {
			s, _ := scale.Float64()
			want := s * float64(published)
			abs := float32(math.Abs(float64(ours)))
			ulp := float64(math.Nextafter32(abs, float32(math.Inf(1))) - abs)
			if (ours == 0) != (published == 0) || math.Abs(float64(ours)-want) > ulp {
				t.Errorf("%s %s %s[%d][%d] = %v, published %v × %v = %v", tr, pt.source, name, i, j, ours, published, scale, want)
			}
		}
		for i := 0; i < tr.T; i++ {
			for j := 0; j < tr.T; j++ {
				check("Bᵀ", i, j, tr.BT.At(i, j), pt.bt[i][j], pt.b[i])
			}
			for j := 0; j < tr.R; j++ {
				check("G", i, j, tr.G.At(i, j), pt.g[i][j], pt.gs[i])
			}
		}
		for i := 0; i < tr.M; i++ {
			for j := 0; j < tr.T; j++ {
				check("Aᵀ", i, j, tr.AT.At(i, j), pt.at[i][j], pt.d[j])
			}
		}
	}
}
