//go:build amd64 && !purego

package quant

import "mptwino/internal/tensor"

// quantizeLanesAVX2 quantizes n lanes, n a multiple of 8, exactly as
// Quantize does: qv and res get Quantize's bits and ov[i] is set for every
// overflowing lane. delta is Δ, top the top grid point and half the top
// region's step (both as float32), shift log2 StepsPerRegion. See
// lanes_amd64.s.
//
//go:noescape
func quantizeLanesAVX2(v, qv, res *float32, ov *bool, n int, delta, top, half float32, shift uint64)

// quantizeBlocks runs the leading ⌊len(v)/8⌋·8 lanes of quantizeLanes
// through the AVX2 kernel when the active GEMM tier runs the AVX2 row
// kernel (avx2), and returns how many lanes it took: none on the other
// tiers. qv, res and ov hold at least len(v) values.
func (q *Quantizer) quantizeBlocks(v, qv, res []float32, ov []bool) int {
	n := len(v) &^ 7
	if n == 0 || !tensor.RowKernelAVX2() {
		return 0
	}
	quantizeLanesAVX2(&v[0], &qv[0], &res[0], &ov[0], n, q.Delta,
		float32(q.topUnits()), float32(int(1)<<(q.Regions-1)), uint64(q.stepShift()))
	return n
}
