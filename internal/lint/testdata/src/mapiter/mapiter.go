// Package mapiter is the golden testdata for the mapiter analyzer: map
// iteration whose order leaks into results.
package mapiter

import "sort"

func appendUnderMapRange(m map[int]float64) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k) // want `append inside map iteration`
	}
	return keys
}

// Collect-then-sort launders the order away and is accepted.
func appendThenSort(m map[int]float64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func channelSend(m map[int]int, ch chan int) {
	for k := range m {
		ch <- k // want `channel send inside map iteration`
	}
}

// Ranging over a slice is ordered: nothing in this body is flagged.
func sliceRange(xs []float64) float64 {
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum
}

// A reasoned suppression is honored…
func suppressed(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v //nolint:mapiter -- testdata: exercising the suppression path itself
	}
	return sum
}

// …but a bare directive is not: it reports, and does not suppress.
func reasonless(m map[string]float64) []string {
	var keys []string
	for k := range m {
		//nolint:mapiter // want `nolint directive is missing its mandatory reason`
		keys = append(keys, k) // want `append inside map iteration`
	}
	return keys
}
