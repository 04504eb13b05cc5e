package winograd

import (
	"testing"

	"mptwino/internal/tensor"
)

func BenchmarkSandwichFused(b *testing.B) {
	tr := F4x4_3x3
	rng := tensor.NewRNG(6)
	x := tensor.NewMat(tr.T, tr.T)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	dst := tensor.NewMat(tr.T, tr.T)
	tmp := make([]float32, tr.TmpLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fusedSandwichInto(dst, tr.fused.bt, x, tmp)
	}
}
