package winograd

import (
	"fmt"

	"mptwino/internal/parallel"
	"mptwino/internal/tensor"
)

// Scratch holds the per-worker reusable buffers of the winograd hot paths:
// a replay arena for staging tiles and fused-transform temporaries, and
// the packing buffers of the blocked GEMM. One Scratch serves one
// sequential stream of Into calls (a Layer, an engine worker); the slots
// inside it serve the goroutines those calls fan out to. Buffers are sized
// by first use and reused afterwards, so steady-state training steps run
// without allocation.
type Scratch struct {
	slots []scratchSlot
}

type scratchSlot struct {
	arena tensor.Arena
	gemm  tensor.GemmScratch
}

// NewScratch returns a Scratch with one slot per default worker. The Into
// entry points cap their fan-out at the slot count, so a Scratch built
// under SetDefaultWorkers(1) also pins those calls to the closure-free
// sequential path (the configuration the zero-alloc benchmarks gate).
func NewScratch() *Scratch {
	return &Scratch{slots: make([]scratchSlot, parallel.DefaultWorkers())}
}

// Workers returns the slot count, the maximum fan-out this Scratch serves.
func (s *Scratch) Workers() int { return len(s.slots) }

func (s *Scratch) slot(w int) *scratchSlot { return &s.slots[w] }

// Split divides the slots into n disjoint sub-Scratches of near-equal size
// (n ≤ Workers()) that share this Scratch's buffers. A caller that fans n
// independent streams out over the pool hands each stream its own part,
// so the kernels inside a stream fan out over the workers the streams
// leave spare: with one stream, its part holds every slot.
func (s *Scratch) Split(n int) []*Scratch {
	w := len(s.slots)
	if n < 1 || n > w {
		panic(fmt.Sprintf("winograd: cannot split %d scratch slots %d ways", w, n))
	}
	out := make([]*Scratch, n)
	for i := range out {
		out[i] = &Scratch{slots: s.slots[i*w/n : (i+1)*w/n]}
	}
	return out
}

// Every Into entry point in this package follows the same two-branch
// shape: with one slot it loops over the per-item method directly; with
// more it hands a closure to parallel.ForEachWorker. The branch matters
// for the 0 allocs/op contract — a closure handed to the parallel engine
// escapes to the heap when *created* (even if the engine's inline path
// runs it), so the sequential branch must never evaluate the closure
// literal.
