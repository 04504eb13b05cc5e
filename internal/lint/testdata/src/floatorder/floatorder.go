// Package floatorder is mapiter golden testdata for float folds over map
// iteration order: the accumulated bits depend on which key comes first,
// and map order is deliberately randomized.
package floatorder

func floatAccum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `float accumulation inside map iteration`
	}
	return sum
}

func floatAccumSpelledOut(m map[string]float32) float32 {
	var sum float32
	for _, v := range m {
		sum = sum + v // want `float accumulation inside map iteration`
	}
	return sum
}

// Integer accumulation is associative and commutative: not flagged.
func intAccum(m map[string]int) int {
	var n int
	for _, v := range m {
		n += v
	}
	return n
}

// Writes into a slot keyed by the map key are per-key: not flagged.
func perKeyWrite(m map[int]float64, out []float64) {
	for k, v := range m {
		out[k] += v
	}
}
