package winograd

import (
	"fmt"
	"math"
	"testing"

	"mptwino/internal/conv"
	"mptwino/internal/tensor"
)

// The per-tile oracle: every tile of every (image, channel) is extracted
// into its own T×T (or m×m) matrix, run through the single-tile sandwich
// (Transform.*Into on the compiled schedules), and stored back.
// This is the textbook formulation of the tile transforms, and it was the
// production path before the channel-batched transforms of domain.go,
// which must reproduce it bit for bit.

func oracleTransformInput(tl *Tiling, x *tensor.Tensor) *Domain {
	t := tl.Tr.T
	d := NewDomain(tl, x.N, x.C)
	patch, w := tensor.NewMat(t, t), tensor.NewMat(t, t)
	tmp := make([]float32, tl.Tr.TmpLen())
	for b := 0; b < x.N; b++ {
		for c := 0; c < x.C; c++ {
			for th := 0; th < tl.TilesH; th++ {
				for tw := 0; tw < tl.TilesW; tw++ {
					tl.ExtractInputTile(patch, x, b, c, th, tw)
					tl.Tr.InputToWinogradInto(w, patch, tmp)
					row := d.row(b, th, tw)
					for e, v := range w.Data {
						d.El[e].Set(row, c, v)
					}
				}
			}
		}
	}
	return d
}

func oracleTransformOutputGrad(tl *Tiling, dy *tensor.Tensor) *Domain {
	d := NewDomain(tl, dy.N, dy.C)
	patch, w := tensor.NewMat(tl.Tr.M, tl.Tr.M), tensor.NewMat(tl.Tr.T, tl.Tr.T)
	tmp := make([]float32, tl.Tr.TmpLen())
	for b := 0; b < dy.N; b++ {
		for c := 0; c < dy.C; c++ {
			for th := 0; th < tl.TilesH; th++ {
				for tw := 0; tw < tl.TilesW; tw++ {
					tl.ExtractOutputTile(patch, dy, b, c, th, tw)
					tl.Tr.OutputToWinogradInto(w, patch, tmp)
					row := d.row(b, th, tw)
					for e, v := range w.Data {
						d.El[e].Set(row, c, v)
					}
				}
			}
		}
	}
	return d
}

func oracleInverseOutput(tl *Tiling, d *Domain) *tensor.Tensor {
	y := tensor.New(d.B, d.C, tl.P.OutH(), tl.P.OutW())
	tile, out := tensor.NewMat(tl.Tr.T, tl.Tr.T), tensor.NewMat(tl.Tr.M, tl.Tr.M)
	tmp := make([]float32, tl.Tr.TmpLen())
	for b := 0; b < d.B; b++ {
		for c := 0; c < d.C; c++ {
			for th := 0; th < tl.TilesH; th++ {
				for tw := 0; tw < tl.TilesW; tw++ {
					row := d.row(b, th, tw)
					for e := range d.El {
						tile.Data[e] = d.El[e].At(row, c)
					}
					tl.Tr.OutputFromWinogradInto(out, tile, tmp)
					tl.ScatterOutputTile(y, out, b, c, th, tw)
				}
			}
		}
	}
	return y
}

func oracleInverseInputGrad(tl *Tiling, d *Domain) *tensor.Tensor {
	dx := tensor.New(d.B, d.C, tl.P.H, tl.P.W)
	tile, out := tensor.NewMat(tl.Tr.T, tl.Tr.T), tensor.NewMat(tl.Tr.T, tl.Tr.T)
	tmp := make([]float32, tl.Tr.TmpLen())
	for b := 0; b < d.B; b++ {
		for c := 0; c < d.C; c++ {
			for th := 0; th < tl.TilesH; th++ {
				for tw := 0; tw < tl.TilesW; tw++ {
					row := d.row(b, th, tw)
					for e := range d.El {
						tile.Data[e] = d.El[e].At(row, c)
					}
					tl.Tr.InputFromWinogradInto(out, tile, tmp)
					tl.ScatterAddInputTile(dx, out, b, c, th, tw)
				}
			}
		}
	}
	return dx
}

// tileOrigin returns the top-left input coordinate (possibly negative, in
// the padding) covered by tile (th, tw).
func (tl *Tiling) tileOrigin(th, tw int) (ih, iw int) {
	return th*tl.Tr.M - tl.P.Pad, tw*tl.Tr.M - tl.P.Pad
}

// ExtractInputTile copies the T×T input patch for tile (th,tw) of image b,
// channel c, into dst (a T×T matrix), zero-filling taps that fall in the
// padding.
func (tl *Tiling) ExtractInputTile(dst *tensor.Mat, x *tensor.Tensor, b, c, th, tw int) {
	t := tl.Tr.T
	oh, ow := tl.tileOrigin(th, tw)
	for r := 0; r < t; r++ {
		ih := oh + r
		for cc := 0; cc < t; cc++ {
			iw := ow + cc
			var v float32
			if ih >= 0 && ih < tl.P.H && iw >= 0 && iw < tl.P.W {
				v = x.At(b, c, ih, iw)
			}
			dst.Set(r, cc, v)
		}
	}
}

// ScatterAddInputTile accumulates a T×T spatial-domain tile (e.g. a dx
// contribution from bprop) back into x at tile (th,tw), skipping padding
// positions. Overlapping tiles therefore sum, which is exactly the adjoint
// of ExtractInputTile.
func (tl *Tiling) ScatterAddInputTile(x *tensor.Tensor, src *tensor.Mat, b, c, th, tw int) {
	t := tl.Tr.T
	oh, ow := tl.tileOrigin(th, tw)
	for r := 0; r < t; r++ {
		ih := oh + r
		if ih < 0 || ih >= tl.P.H {
			continue
		}
		for cc := 0; cc < t; cc++ {
			iw := ow + cc
			if iw < 0 || iw >= tl.P.W {
				continue
			}
			x.Add(b, c, ih, iw, src.At(r, cc))
		}
	}
}

// ExtractOutputTile copies the m×m output patch for tile (th,tw) into dst,
// zero-filling positions past the output boundary (tiles at the right and
// bottom edge may be partial).
func (tl *Tiling) ExtractOutputTile(dst *tensor.Mat, y *tensor.Tensor, b, c, th, tw int) {
	m := tl.Tr.M
	oh, ow := tl.P.OutH(), tl.P.OutW()
	for r := 0; r < m; r++ {
		yy := th*m + r
		for cc := 0; cc < m; cc++ {
			xx := tw*m + cc
			var v float32
			if yy < oh && xx < ow {
				v = y.At(b, c, yy, xx)
			}
			dst.Set(r, cc, v)
		}
	}
}

// ScatterOutputTile writes an m×m output tile into y at tile (th,tw),
// dropping positions past the output boundary. Output tiles do not
// overlap, so this is a plain store.
func (tl *Tiling) ScatterOutputTile(y *tensor.Tensor, src *tensor.Mat, b, c, th, tw int) {
	m := tl.Tr.M
	oh, ow := tl.P.OutH(), tl.P.OutW()
	for r := 0; r < m; r++ {
		yy := th*m + r
		if yy >= oh {
			break
		}
		for cc := 0; cc < m; cc++ {
			xx := tw*m + cc
			if xx >= ow {
				break
			}
			y.Set(b, c, yy, xx, src.At(r, cc))
		}
	}
}

// fillOracleData fills data with normal values and a share of exact +0
// and −0 (the zero addends a chain must absorb without changing a bit).
func fillOracleData(r *tensor.RNG, data []float32) {
	for i := range data {
		switch u := r.Float64(); {
		case u < 0.1:
			data[i] = 0
		case u < 0.15:
			data[i] = float32(math.Copysign(0, -1))
		default:
			data[i] = float32(r.NormFloat64())
		}
	}
}

func bitEqualSlices(a, b []float32) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

func requireBitEqualDomain(t *testing.T, ctx string, want, got *Domain) {
	t.Helper()
	if len(want.El) != len(got.El) {
		t.Fatalf("%s: %d elements, want %d", ctx, len(got.El), len(want.El))
	}
	for e := range want.El {
		if i, ok := bitEqualSlices(want.El[e].Data, got.El[e].Data); !ok {
			t.Fatalf("%s: element %d differs at %d", ctx, e, i)
		}
	}
}

func requireBitEqualTensor(t *testing.T, ctx string, want, got *tensor.Tensor) {
	t.Helper()
	if !want.SameShape(got) {
		t.Fatalf("%s: shape %s, want %s", ctx, got.ShapeString(), want.ShapeString())
	}
	if i, ok := bitEqualSlices(want.Data, got.Data); !ok {
		t.Fatalf("%s: value %d is %v, oracle %v", ctx, i, got.Data[i], want.Data[i])
	}
}

// TestTilingTransformsMatchPerTileOracle: the four Tiling transforms
// reproduce the per-tile oracle bit for bit — over F(2×2,3×3),
// F(4×4,3×3), F(6×6,3×3), F(2×2,5×5) and F(6×6,5×5), with partial edge
// tiles, pad ∈ {0,1,2} and C ∈ {1,3,48}.
func TestTilingTransformsMatchPerTileOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *Transform
	}{
		{"F2x2_3x3", F2x2_3x3}, {"F4x4_3x3", F4x4_3x3}, {"F6x6_3x3", F6x6_3x3},
		{"F2x2_5x5", F2x2_5x5}, {"F6x6_5x5", f6x6_5x5},
	} {
		for _, pad := range []int{0, 1, 2} {
			for _, ch := range []int{1, 3, 48} {
				p := conv.Params{In: ch, Out: ch, K: tc.tr.R, Pad: pad, H: 11, W: 9}
				ctx := fmt.Sprintf("%s pad=%d C=%d", tc.name, pad, ch)
				tl, err := NewTiling(tc.tr, p)
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				r := tensor.NewRNG(uint64(1000*pad + ch))
				x := tensor.New(2, ch, p.H, p.W)
				fillOracleData(r, x.Data)
				dy := tensor.New(2, ch, p.OutH(), p.OutW())
				fillOracleData(r, dy.Data)
				yd := NewDomain(tl, 2, ch)
				for _, el := range yd.El {
					fillOracleData(r, el.Data)
				}

				requireBitEqualDomain(t, ctx+" TransformInput", oracleTransformInput(tl, x), tl.TransformInput(x))
				requireBitEqualDomain(t, ctx+" TransformOutputGrad", oracleTransformOutputGrad(tl, dy), tl.TransformOutputGrad(dy))
				requireBitEqualTensor(t, ctx+" InverseOutput", oracleInverseOutput(tl, yd), tl.InverseOutput(yd))
				requireBitEqualTensor(t, ctx+" InverseInputGrad", oracleInverseInputGrad(tl, yd), tl.InverseInputGrad(yd))
			}
		}
	}
}
