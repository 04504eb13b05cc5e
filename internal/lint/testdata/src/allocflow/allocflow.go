// Package allocflow is the golden testdata for the allocflow analyzer:
// allocation constructs (and unanalyzable calls) in noalloc roots and
// reachable on call paths from them. Transitive ones land at the call
// site inside the root — the actionable frame; a root's own constructs,
// reported where they are written, are in testdata/src/noalloc.
package allocflow

import (
	"strconv"

	"testdata/allocflow/helpers"
)

// grow is an allocating local helper one hop from the roots.
func grow(xs []float64) []float64 {
	ys := make([]float64, 2*len(xs))
	copy(ys, xs)
	return ys
}

// chainA -> chainB is a two-hop allocating path.
func chainA(xs []float64) []float64 { return chainB(xs) }

func chainB(xs []float64) []float64 {
	return append(xs, 0)
}

// cleanHelper is allocation-free.
func cleanHelper(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}

// localHopInto calls an allocating helper in the same package.
func localHopInto(dst, src []float64) {
	tmp := grow(src) // want `localHopInto: allocation reachable on a noalloc path via grow: make allocates`
	copy(dst, tmp)
}

// twoHopInto reaches the allocation through an intermediate frame; the
// chain in the message names both hops.
func twoHopInto(dst, src []float64) {
	tmp := chainA(src) // want `twoHopInto: allocation reachable on a noalloc path via chainA → chainB: append allocates`
	copy(dst, tmp)
}

// crossPkgInto reaches allocations in another package — the case a
// per-function AST walk can never see.
func crossPkgInto(dst, src []float64) {
	tmp := helpers.Scale(src, 2) // want `crossPkgInto: allocation reachable on a noalloc path via Scale: make allocates`
	copy(dst, tmp)
	deep := helpers.Deep(src) // want `crossPkgInto: allocation reachable on a noalloc path via Deep → deeper: append allocates`
	copy(dst, deep)
}

// cleanInto only calls allocation-free helpers (local and cross-package).
func cleanInto(dst, src []float64) {
	helpers.ScaleInPlace(src, 2)
	dst[0] = cleanHelper(src)
}

// dynamicInto calls through a function-valued parameter: allocflow cannot
// see the callee, which is exactly how an allocation sneaks in.
func dynamicInto(dst, src []float64, f func(float64) float64) {
	for i := range src {
		dst[i] = f(src[i]) // want `dynamicInto: call through function value "f" on a noalloc path`
	}
}

// externalInto calls an out-of-module function that is not on the
// sanctioned-callee list: allocflow has no body to analyze, so the call
// itself is the finding.
func externalInto(dst []float64) {
	n := len(strconv.Itoa(len(dst))) // want `externalInto: calls strconv.Itoa on a noalloc path; its body is outside the program`
	dst[0] = float64(n)
}

// coldPathInto only reaches the allocating helper inside a panic guard:
// a shape-check error path, never executed at steady state.
func coldPathInto(dst, src []float64) {
	if len(dst) != len(src) {
		_ = grow(src)
		panic("shape mismatch")
	}
	copy(dst, src)
}

// annotatedRoot is a root via the //mptlint:noalloc directive rather than
// the *Into suffix.
//
//mptlint:noalloc
func annotatedRoot(dst, src []float64) {
	tmp := grow(src) // want `annotatedRoot: allocation reachable on a noalloc path via grow: make allocates`
	copy(dst, tmp)
}

// notARoot has no suffix and no directive: free to allocate via helpers.
func notARoot(xs []float64) []float64 {
	return grow(xs)
}

// suppressedInto documents an accepted one-off with a reasoned directive.
func suppressedInto(dst, src []float64) {
	tmp := grow(src) //nolint:allocflow -- testdata: cold init path, called once before the steady state
	copy(dst, tmp)
}
