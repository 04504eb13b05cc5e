// Package sharedwrite is the golden testdata for the flow-sensitive
// sharedwrite analyzer: writes to captured variables (or aliases of them)
// inside parallel closures that are not provably partitioned by the
// worker/item index.
package sharedwrite

import "mptwino/internal/parallel"

// Captured scalar accumulator: the classic cross-worker race.
func sharedScalar(xs []float64) float64 {
	var sum float64
	parallel.ForEach(0, len(xs), func(i int) {
		sum += xs[i] // want `captured "sum" is accumulated inside a parallel.ForEach closure`
	})
	return sum
}

// sharedwrite generalizes beyond floats: an integer counter races the
// same way (the VALUE is schedule-independent, but the write itself is a
// data race the determinism contract bans).
func sharedIntCounter(xs []int) int {
	var n int
	parallel.ForEach(0, len(xs), func(i int) {
		n += xs[i] // want `captured "n" is accumulated inside a parallel.ForEach closure`
	})
	return n
}

// Unindexed scalar write (not an accumulation): last writer wins by
// schedule.
func sharedFlag(xs []int) bool {
	var sawNeg bool
	parallel.ForEach(0, len(xs), func(i int) {
		if xs[i] < 0 {
			sawNeg = true // want `write to captured "sawNeg" inside a parallel.ForEach closure is not provably partitioned`
		}
	})
	return sawNeg
}

// Per-item slots indexed by the closure parameter: the sanctioned idiom.
func perItemSlots(xs, out []float64) {
	parallel.ForEach(0, len(xs), func(i int) {
		out[i] = xs[i] * 2
	})
}

// Per-worker partials via ForEachWorker: also sanctioned — the
// accumulator is captured but indexed by the worker parameter.
func perWorkerPartials(xs []float64, workers int) float64 {
	partials := make([]float64, workers)
	parallel.ForEachWorker(workers, len(xs), func(worker, i int) {
		partials[worker] += xs[i]
	})
	var sum float64
	for _, v := range partials {
		sum += v
	}
	return sum
}

// ForEachPhase seeds its worker and item parameters like ForEachWorker:
// per-worker partials and per-item slots stay partitioned inside a phase.
func phasedPartials(xs, out []float64, workers int) {
	partials := make([]float64, workers)
	parallel.ForEachPhase(workers, []int{len(xs), len(xs)}, func(phase, worker, i int) {
		if phase == 0 {
			partials[worker] += xs[i]
		} else {
			out[i] = xs[i] * 2
		}
	})
}

// ForEachPhase's phase is not a work index: every item running at once
// shares it, so a slot indexed by the phase alone is shared state.
func phaseIndexedSlot(xs, perPhase []float64) {
	parallel.ForEachPhase(0, []int{len(xs), len(xs)}, func(phase, _, i int) {
		perPhase[phase] = xs[i] // want `write to captured "perPhase" inside a parallel.ForEachPhase closure is not provably partitioned`
	})
}

// A captured slot indexed by a constant is still shared state.
func constantSlot(xs []float64) float64 {
	partials := make([]float64, 1)
	parallel.ForEach(0, len(xs), func(i int) {
		partials[0] += xs[i] // want `captured "partials" is accumulated inside a parallel.ForEach closure`
	})
	return partials[0]
}

// Flow-sensitivity: an offset computed from the item index is derived, so
// writes through it are partitioned — including the loop-carried
// `off += 1` form the old syntactic check could not follow.
func derivedOffset(dst, src []float64, stride int) {
	parallel.ForEach(0, len(src)/stride, func(i int) {
		off := i * stride
		for k := 0; k < stride; k++ {
			dst[off] = src[off] * 2
			off += 1
		}
	})
}

// Flow-sensitivity, negative direction: a variable seeded from the item
// index but REASSIGNED from captured state is no longer derived at the
// write point.
func reassignedIndex(dst, src []float64, pick int) {
	parallel.ForEach(0, len(src), func(i int) {
		j := i
		j = pick
		dst[j] = src[i] // want `write to captured "dst" inside a parallel.ForEach closure is not provably partitioned`
	})
}

// Alias layer: a row carved out of captured storage with parameter-derived
// bounds is worker-private; writes through it are fine.
func partitionedRow(dst, src []float64, w int) {
	parallel.ForEach(0, len(src)/w, func(i int) {
		row := dst[i*w : (i+1)*w]
		for k := range row {
			row[k] = src[i*w+k]
		}
	})
}

// Alias layer, negative direction: a plain alias of the whole captured
// slice overlaps every worker's view.
func wholeSliceAlias(dst, src []float64) {
	parallel.ForEach(0, len(src), func(i int) {
		q := dst
		q[0] = src[i] // want `write to "q", which aliases captured state inside a parallel.ForEach closure`
	})
}

// Ranging over a captured slice selects elements by the RANGE index, not
// the worker index, so the value alias stays shared.
func rangeRowAlias(grid [][]float64, src []float64) {
	parallel.ForEach(0, len(src), func(i int) {
		for _, row := range grid {
			row[0] += src[i] // want `"row", which aliases captured state is accumulated inside a parallel.ForEach closure`
		}
	})
}

// copy writes through its first argument: fine when the destination
// window is parameter-derived, flagged when it is the whole captured
// slice.
func copyTargets(dst, src []float64, w int) {
	parallel.ForEach(0, len(src)/w, func(i int) {
		copy(dst[i*w:], src[i*w:(i+1)*w])
	})
	parallel.ForEach(0, len(src), func(i int) {
		copy(dst, src) // want `write to captured "dst" inside a parallel.ForEach closure is not provably partitioned`
	})
}

// Rebinding a closure-local alias variable is not a write to shared
// storage (the write below through the rebound alias is partitioned).
func aliasRebinding(dst, src []float64, w int) {
	parallel.ForEach(0, len(src)/w, func(i int) {
		var row []float64
		row = dst[i*w : (i+1)*w]
		row[0] = src[i*w]
	})
}

// Locals declared inside the closure are per-item scratch.
func localScratch(xs, ys []float64) {
	parallel.ForEach(0, len(xs), func(i int) {
		var acc float64
		acc += xs[i]
		acc += 1
		ys[i] = acc
	})
}

func suppressedShared(xs []float64) float64 {
	var sum float64
	parallel.ForEach(1, len(xs), func(i int) {
		sum += xs[i] //nolint:sharedwrite -- testdata: single-worker call, fold order is the item order by construction
	})
	return sum
}
