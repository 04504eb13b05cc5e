package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailQuantile is the highest quantile that leaves at least ten of n
// samples beyond it; with ten or fewer samples no quantile does, and the
// median stands in.
func tailQuantile(n int) float64 {
	if n <= 10 {
		return 0.5
	}
	return 1 - 10/float64(n)
}
