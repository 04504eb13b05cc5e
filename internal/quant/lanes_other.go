//go:build !amd64 || purego

package quant

// quantizeBlocks takes no lanes without the AVX2 kernel (non-amd64, or
// -tags purego): quantizeLanes runs Quantize on every lane.
func (q *Quantizer) quantizeBlocks(v, qv, res []float32, ov []bool) int { return 0 }
