package winograd

import (
	"testing"

	"mptwino/internal/conv"
	"mptwino/internal/parallel"
	"mptwino/internal/tensor"
)

// Regression for the allocflow finding fixed by building the per-worker
// Scratch eagerly in the constructors: (*Layer).scratch used to lazily
// call NewScratch on the first FpropInto/BpropInto/UpdateGradWInto, which
// put a make on every //mptlint:noalloc root's first-call path (and kept
// the lazy-init helper on the sanctioned-callee list). These tests pin the
// fix: construction owns the allocation, the hot-path accessor only hands
// out the cached pointer.

func testLayerParams() conv.Params {
	return conv.Params{In: 2, Out: 3, H: 8, W: 8, K: 3, Pad: 1}
}

// The constructors must hand back a Layer whose scratch already exists.
func TestNewLayerBuildsScratchEagerly(t *testing.T) {
	tr := F2x2_3x3
	p := testLayerParams()

	l, err := NewLayer(tr, p, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if l.sc == nil {
		t.Fatal("NewLayer: sc is nil; Scratch must be built at construction, not lazily on the allocation-free hot path")
	}

	w := tensor.New(p.Out, p.In, p.K, p.K)
	lw, err := NewLayerWithWeights(tr, p, w)
	if err != nil {
		t.Fatal(err)
	}
	if lw.sc == nil {
		t.Fatal("NewLayerWithWeights: sc is nil; Scratch must be built at construction")
	}
}

// The Scratch slot count is fixed by the worker setting in effect at
// construction — the property the steady-state suite relies on when it
// rebuilds Layers after SetDefaultWorkers.
func TestLayerScratchWorkersFollowConstructionSetting(t *testing.T) {
	tr := F2x2_3x3
	p := testLayerParams()
	prev := parallel.DefaultWorkers()
	defer parallel.SetDefaultWorkers(prev)

	for _, workers := range []int{1, 2, 4} {
		parallel.SetDefaultWorkers(workers)
		l, err := NewLayer(tr, p, tensor.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		if got := l.scratch().Workers(); got != workers {
			t.Fatalf("SetDefaultWorkers(%d): scratch().Workers() = %d", workers, got)
		}
	}
}

// A Layer assembled without the constructors has no scratch; the accessor
// must fail loudly instead of silently allocating one on the hot path.
func TestLayerScratchPanicsWithoutConstructor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("scratch() on a zero-value Layer did not panic; lazy allocation on the allocation-free path must not come back")
		}
	}()
	var l Layer
	l.scratch()
}
