package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkGemmCrossover is the probe gemmMinFlops is set from: the
// reference loops against the blocked kernel (with the finite-B check
// dispatch adds to NN and TN) on every tier with an assembly kernel, at
// the element-GEMM shapes m×n×k of perfbench's AlexNet body
// (conv2–5 on their planned grids, one-image cluster shards) and at five
// smaller products:
//
//	go test -run '^$' -bench GemmCrossover -benchtime 20000x ./internal/tensor
//
// EXPERIMENTS.md ("Element-GEMM crossover") holds the table.
func BenchmarkGemmCrossover(b *testing.B) {
	defer restoreGemmKernel(b)
	shapes := []struct {
		pass    string
		m, n, k int
	}{
		{"fprop", 49, 32, 12}, {"fprop", 16, 48, 32}, {"fprop", 16, 48, 48}, {"fprop", 16, 32, 48},
		{"bprop", 16, 32, 48}, {"bprop", 16, 48, 48}, {"bprop", 16, 48, 32},
		{"update", 12, 32, 49}, {"update", 32, 48, 16}, {"update", 48, 48, 16}, {"update", 48, 32, 16},
		// Below the body's smallest product (18816 multiply-adds), to
		// bracket the crossover.
		{"fprop", 16, 16, 1}, {"fprop", 16, 16, 2}, {"fprop", 16, 16, 4}, {"fprop", 16, 16, 8}, {"fprop", 16, 16, 16},
	}
	rng := rand.New(rand.NewSource(1))
	for _, name := range GemmKernels() {
		if err := SelectGemmKernel(name); err != nil {
			b.Fatal(err)
		}
		g := activeGemm.Load()
		if g.kern == nil {
			continue
		}
		for _, sh := range shapes {
			m, n, k := sh.m, sh.n, sh.k
			dst := NewMat(m, n)
			var s GemmScratch
			var naive, blocked func()
			switch sh.pass {
			case "fprop": // NN: Y = X·W
				a, w := randMat(rng, m, k, 0), randMat(rng, k, n, 0)
				naive = func() { MatMulNaiveInto(dst, a, w) }
				blocked = func() {
					if finite(w.Data) {
						gemmBlocked(dst, a.Data, k, w.Data, n, m, n, k, false, false, &s, g)
					}
				}
			case "bprop": // NT: dX = dY·Wᵀ
				a, w := randMat(rng, m, k, 0), randMat(rng, n, k, 0)
				naive = func() { MatMulNTNaiveInto(dst, a, w) }
				blocked = func() { gemmBlocked(dst, a.Data, k, w.Data, k, m, n, k, false, true, &s, g) }
			case "update": // TN: dW = Xᵀ·dY
				x, dy := randMat(rng, k, m, 0), randMat(rng, k, n, 0)
				naive = func() { MatMulTNNaiveInto(dst, x, dy) }
				blocked = func() {
					if finite(dy.Data) {
						gemmBlocked(dst, x.Data, m, dy.Data, n, m, n, k, true, false, &s, g)
					}
				}
			}
			for _, v := range []struct {
				path string
				run  func()
			}{{"naive", naive}, {"blocked", blocked}} {
				b.Run(fmt.Sprintf("%s/%s/%dx%dx%d/%s", name, sh.pass, m, n, k, v.path), func(b *testing.B) {
					v.run() // size the packing scratch
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						v.run()
					}
				})
			}
		}
	}
}
