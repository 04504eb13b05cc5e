// Package noalloc is allocflow golden testdata for a root's own
// allocation constructs, reported where they are written.
package noalloc

import (
	"fmt"

	"mptwino/internal/parallel"
	"testdata/noalloc/telemetry"
)

func scaleInto(dst, src []float64, k float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("shape mismatch %d != %d", len(dst), len(src))) // cold panic guard: allowed
	}
	for i, v := range src {
		dst[i] = k * v
	}
}

func badMakeInto(dst []float64, src []float64) {
	tmp := make([]float64, len(src)) // want `badMakeInto: make allocates on a noalloc path`
	copy(tmp, src)
	copy(dst, tmp)
}

func badAppendInto(dst *[]float64, v float64) {
	*dst = append(*dst, v) // want `badAppendInto: append allocates on a noalloc path`
}

func badNewInto(dst *float64) {
	p := new(float64) // want `badNewInto: new allocates on a noalloc path`
	*dst = *p
}

type vec struct{ x, y float64 }

func badLiteralsInto(dst []float64) {
	buf := []float64{1, 2, 3} // want `slice literal allocates on a noalloc path`
	m := map[int]int{1: 2}    // want `map literal allocates on a noalloc path`
	v := &vec{1, 2}           // want `&composite literal allocates on a noalloc path`
	dst[0] = buf[0] + float64(m[1]) + v.x
}

// A plain struct value literal stays on the stack: not flagged.
func valueLiteralInto(dst []float64) {
	v := vec{1, 2}
	dst[0] = v.x + v.y
}

// The closure allocates, and the call through it is a dynamic call.
func badClosureInto(dst, src []float64) {
	add := func(i int) { dst[i] += src[i] } // want `func literal \(closure\) allocates on a noalloc path`
	for i := range src {
		add(i) // want `call through function value "add" on a noalloc path`
	}
}

// The pool fan-out closure is the sanctioned exception: one amortized
// allocation per kernel call, closure-free on the single-worker branch.
func parallelClosureInto(dst, src []float64) {
	parallel.ForEachWorker(0, len(src), func(worker, i int) {
		dst[i] = 2 * src[i]
	})
}

// Functions not named *Into and not annotated are out of scope.
func builderHelper(n int) []float64 {
	return make([]float64, n)
}

// The //mptlint:noalloc directive opts a function in by annotation even
// though its name does not end in Into.
//
//mptlint:noalloc
func annotatedKernel(dst []float64) {
	tmp := make([]float64, 4) // want `annotatedKernel: make allocates on a noalloc path`
	copy(dst, tmp)
}

func suppressedOwnInto(dst []float64) {
	tmp := make([]float64, 1) //nolint:allocflow -- testdata: first-call growth, amortized away at steady state
	copy(dst, tmp)
}

func badSprintfInto(dst []byte, x int) {
	s := fmt.Sprintf("%d", x) // want `badSprintfInto: calls fmt.Sprintf on a noalloc path; its body is outside the program`
	copy(dst, s)
}

// Telemetry's nil-safe atomic updates walk clean, so a kernel counts work
// with handles resolved by the caller and bumped in the loop.
func instrumentedInto(dst, src []float64, flops *telemetry.Counter, occ *telemetry.Gauge, util *telemetry.Histogram) {
	for i, v := range src {
		dst[i] = 2 * v
	}
	flops.Add(int64(len(src)))
	flops.Inc()
	occ.Set(1)
	occ.Max(int64(len(src)))
	util.Observe(0.5)
}

// Registry lookups lock and allocate, and trace emission appends: both
// stay out of kernel scope.
func badTelemetryLookupInto(dst []float64, reg *telemetry.Registry, tr *telemetry.Tracer) {
	reg.Counter("flops").Add(1) // want `via Counter: &composite literal allocates` `via Counter: calls \(\*sync.Mutex\).Lock,` `via Counter: calls \(\*sync.Mutex\).Unlock,`
	reg.Gauge("occ").Set(2)     // want `via Gauge: &composite literal allocates` `via Gauge: calls \(\*sync.Mutex\).Lock,` `via Gauge: calls \(\*sync.Mutex\).Unlock,`
	tr.Instant("tick")          // want `via Instant: append allocates`
	dst[0] = 1
}
