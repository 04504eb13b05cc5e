// Package quant implements Section V of the paper: non-uniform quantization
// of Winograd-domain values, conservative activation prediction (1-D and
// 2-D predict) with no false negatives, and zero-skipping — the mechanisms
// that shrink tile-gathering and tile-scattering communication.
package quant

import (
	"fmt"
	"math"
	"math/bits"
)

// Quantizer is the non-uniform quantizer of Fig. 10: the value range is
// split into Regions regions, each holding StepsPerRegion steps, with the
// step size doubling from one region to the next (Δ, 2Δ, 4Δ, …). The base
// step Δ is derived from the standard deviation of the value distribution,
// which the paper observed to be normal for Winograd-domain tiles.
//
// Quantization floors toward −∞, so the quantization error e = v − q always
// satisfies 0 ≤ e ≤ res(v); this one-sidedness is what the pos/neg
// coefficient split of the predictor exploits.
type Quantizer struct {
	Regions        int     // number of step-doubling regions (paper's best: 4)
	Bits           int     // code width including sign (paper: 5 or 6)
	Sigma          float32 // standard deviation of the real values
	RangeSigmas    float64 // half-range covered, in sigmas (default 4)
	StepsPerRegion int     // derived: levels-per-sign / Regions
	Delta          float32 // derived: base step size
}

// maxGridUnits bounds a quantizer's top grid point in base steps: every
// integer up to 2^24 is exact in float32.
const maxGridUnits = 1 << 24

// NewQuantizer builds a quantizer for bits-wide codes with the given number
// of regions, calibrated to standard deviation sigma. levels-per-sign is
// 2^(bits-1); it must be divisible by regions, and the top grid point
// (levels-per-sign/regions)·(2^regions − 1) must not exceed 2^24 base
// steps. Since levels-per-sign is a power of two, so are regions and
// StepsPerRegion. sigma must be positive and finite and give a positive,
// finite base step Δ (see Calibrate).
func NewQuantizer(regions, bits int, sigma float32) (*Quantizer, error) {
	if regions < 1 {
		return nil, fmt.Errorf("quant: regions must be >= 1, got %d", regions)
	}
	if bits < 2 || bits > 16 {
		return nil, fmt.Errorf("quant: bits must be in [2,16], got %d", bits)
	}
	perSign := 1 << (bits - 1)
	if perSign%regions != 0 {
		return nil, fmt.Errorf("quant: %d levels per sign not divisible by %d regions", perSign, regions)
	}
	// The top grid point, S·(2^R − 1) base steps, must be a float32
	// integer, so that Δ·float32(g) is the grid point and not a rounding
	// of it. Past R = 24 the product no longer needs computing (and past
	// R = 63 it would wrap), since S ≥ 1.
	if regions > 24 || int64(perSign/regions)*(1<<regions-1) > maxGridUnits {
		return nil, fmt.Errorf("quant: %d regions of %d steps put the top grid point past 2^24 base steps",
			regions, perSign/regions)
	}
	q := &Quantizer{
		Regions:        regions,
		Bits:           bits,
		RangeSigmas:    4,
		StepsPerRegion: perSign / regions,
	}
	if err := q.Calibrate(sigma); err != nil {
		return nil, err
	}
	return q, nil
}

// Calibrate re-derives Sigma and the base step Δ in place for a new
// standard deviation — the per-layer recalibration the engine runs on
// every predicted pass, without rebuilding the quantizer. A σ that is not
// positive and finite is rejected and leaves q unchanged, and so is one
// whose Δ rounds to 0 or +Inf in float32: at the default grid any σ below
// about 2e-44 gives Δ = 0, and a zero input then quantizes through 0/0;
// NewQuantizer(1, 2, 3e38) gives Δ = +Inf, and every estimate is NaN. So
// a calibrated Δ is positive and finite, and a quotient v/Δ is NaN only
// for a NaN v.
func (q *Quantizer) Calibrate(sigma float32) error {
	if !(sigma > 0) || math.IsInf(float64(sigma), 1) {
		return SigmaError{sigma}
	}
	// Half-range in base steps is S·(2^R − 1); solve Δ from the σ coverage.
	delta := float32(q.RangeSigmas * float64(sigma) / float64(q.topUnits()))
	if !(delta > 0) || math.IsInf(float64(delta), 1) {
		return SigmaError{sigma}
	}
	q.Sigma, q.Delta = sigma, delta
	return nil
}

// SigmaError rejects a calibration σ that is not positive and finite, or
// whose base step Δ is not. Calibrate runs on every predicted pass, so its
// error is a plain value rather than a formatted one; it is built, and
// allocates when boxed as an error, only when Calibrate fails.
type SigmaError struct{ Sigma float32 }

func (e SigmaError) Error() string {
	return fmt.Sprintf("quant: sigma must be positive and finite, with a positive finite base step, got %v", e.Sigma)
}

// MustQuantizer is NewQuantizer that panics on error.
func MustQuantizer(regions, bits int, sigma float32) *Quantizer {
	q, err := NewQuantizer(regions, bits, sigma)
	if err != nil {
		panic(err)
	}
	return q
}

// HalfRange returns the largest representable magnitude; values beyond it
// overflow.
func (q *Quantizer) HalfRange() float32 {
	return q.Delta * float32(q.topUnits())
}

// topUnits returns the top grid point S·(2^R − 1), in base steps.
func (q *Quantizer) topUnits() int {
	return q.StepsPerRegion * (1<<q.Regions - 1)
}

// stepShift returns log2 S. StepsPerRegion is a power of two by
// construction (NewQuantizer), so dividing by it is this shift.
func (q *Quantizer) stepShift() int {
	return bits.TrailingZeros(uint(q.StepsPerRegion))
}

// regionOfUnits returns the step-doubling region holding a grid magnitude
// of u base-step units, using the integer-arithmetic-and-bit-shift
// formulation of Fig. 10(b): the region index is the bit position of the
// most significant bit of u/S + 1. u/S is the shift u >> log2 S: plainly
// for u ≥ 0, and also for the one negative u that reaches here, amd64's
// int(+Inf) = MinInt64, which S divides.
func (q *Quantizer) regionOfUnits(u int) int {
	return bits.Len(uint(u>>q.stepShift()+1)) - 1
}

// quantAbsUnits floors a non-negative magnitude to the grid, in integer
// base-step units: gridU is the quantized magnitude, stepU the region's
// step size (both in units of Δ).
func (q *Quantizer) quantAbsUnits(mag float32) (gridU, stepU int, overflow bool) {
	s := q.StepsPerRegion
	u := int(mag / q.Delta) // floor in base-step units
	region := q.regionOfUnits(u)
	// A NaN magnitude has no grid point below it; its int conversion is
	// platform-defined, so it is flagged explicitly rather than trusted to
	// land in an out-of-range region.
	if region >= q.Regions || mag != mag {
		// Clamp to the top grid point and flag overflow; the predictor must
		// treat overflowed elements conservatively.
		return q.topUnits(), 1 << (q.Regions - 1), true
	}
	step := 1 << region
	regionLow := (step - 1) * s
	idx := (u - regionLow) >> region
	return regionLow + idx<<region, step, false
}

// stepOfGridUnits returns the resolution (in Δ units) at grid magnitude u
// — the step of the region u belongs to, so grid points on a region
// boundary take the wider (upper) region's step, keeping Quantize, Encode
// and Decode canonical.
func (q *Quantizer) stepOfGridUnits(u int) int {
	region := q.regionOfUnits(u)
	if region >= q.Regions {
		region = q.Regions - 1
	}
	return 1 << region
}

// Quantize floors v to the non-uniform grid and returns the quantized value
// q ≤ v, the resolution res such that v − q ∈ [0, res], and an overflow
// flag for values beyond the representable range.
func (q *Quantizer) Quantize(v float32) (qv, res float32, overflow bool) {
	if v >= 0 {
		g, step, ov := q.quantAbsUnits(v)
		return q.Delta * float32(g), q.Delta * float32(step), ov
	}
	g, step, ov := q.quantAbsUnits(-v) // exact: v < 0, or NaN
	// Floor toward −∞ for negatives: −g ≥ v would violate q ≤ v whenever
	// g < |v|, so step up one grid point in magnitude. That may cross into
	// the next region; report that region's (wider) resolution, which
	// still bounds the error. Stepping onto the range boundary itself
	// (s·(2^R−1) units) leaves the encodable level space, so it is flagged
	// as overflow — the predictor then treats the element conservatively.
	if q.Delta*float32(g) < -v {
		g += step
		step = q.stepOfGridUnits(g)
		if g >= q.topUnits() {
			ov = true
		}
	}
	return -q.Delta * float32(g), q.Delta * float32(step), ov
}

// QuantizeSlice quantizes every value, writing quantized values and
// resolutions in place; it returns whether any element overflowed.
func (q *Quantizer) QuantizeSlice(v, qv, res []float32) (overflow bool) {
	if len(qv) != len(v) || len(res) != len(v) {
		panic("quant: QuantizeSlice length mismatch")
	}
	for i, x := range v {
		var ov bool
		qv[i], res[i], ov = q.Quantize(x)
		overflow = overflow || ov
	}
	return overflow
}

// CodeBits returns the per-value payload width in bits: one sign bit plus
// the level index (region+step) — the wire cost of a prediction message.
func (q *Quantizer) CodeBits() int { return q.Bits }

// Encode quantizes v to its wire code: bit (Bits-1) is the sign, the low
// bits are the magnitude's level index on the non-uniform grid (clamped at
// the top level on overflow). Decode(Encode(v)) reproduces Quantize(v)'s
// quantized value and resolution exactly for in-range values.
func (q *Quantizer) Encode(v float32) uint32 {
	var sign uint32
	var u int
	if v >= 0 {
		u, _, _ = q.quantAbsUnits(v)
	} else {
		sign = 1 << (q.Bits - 1)
		var step int
		var ov bool
		u, step, ov = q.quantAbsUnits(float32(-float64(v)))
		if !ov && q.Delta*float32(u) < -v {
			u += step
		}
	}
	return sign | q.levelOfUnits(u)
}

// levelOfUnits maps a grid magnitude in base-step units to its level index.
func (q *Quantizer) levelOfUnits(u int) uint32 {
	s := q.StepsPerRegion
	region := q.regionOfUnits(u)
	if region >= q.Regions {
		region = q.Regions - 1
	}
	step := 1 << region
	regionLow := (step - 1) * s
	idx := (u - regionLow) >> region
	if idx < 0 {
		idx = 0
	}
	// Overflowed magnitudes clamp to the top in-range level (the overflow
	// condition itself travels via Quantize's flag).
	if idx > s-1 && region == q.Regions-1 {
		idx = s - 1
	}
	return uint32(region*s + idx)
}

// Decode returns the quantized value and resolution for a wire code.
func (q *Quantizer) Decode(code uint32) (qv, res float32) {
	sign := code&(1<<(q.Bits-1)) != 0
	level := int(code & ((1 << (q.Bits - 1)) - 1))
	s := q.StepsPerRegion
	region := level >> q.stepShift()
	if region >= q.Regions {
		region = q.Regions - 1
	}
	idx := level - region*s
	u := ((1<<region)-1)*s + idx<<region
	qv = q.Delta * float32(u)
	res = q.Delta * float32(q.stepOfGridUnits(u))
	if sign {
		qv = -qv
	}
	return qv, res
}

// EstimateSigma returns the sample standard deviation of values, used to
// calibrate the quantizer to a layer's Winograd-domain distribution (the
// paper precomputes log(1/Δ) per layer from profiling).
func EstimateSigma(values []float32) float32 {
	var m moments
	m.add(values)
	return m.sigma()
}

// moments accumulates, in input order, the float64 sums EstimateSigma
// reduces, so a σ can be streamed over several slices with the same bits
// as over their concatenation.
type moments struct {
	sum, sumsq float64
	n          int
}

func (m *moments) add(values []float32) {
	sum, sumsq := m.sum, m.sumsq
	for _, v := range values {
		sum += float64(v)
		sumsq += float64(v) * float64(v)
	}
	m.sum, m.sumsq = sum, sumsq
	m.n += len(values)
}

func (m *moments) sigma() float32 {
	if m.n == 0 {
		return 1
	}
	n := float64(m.n)
	mean := m.sum / n
	variance := m.sumsq/n - mean*mean
	if variance <= 0 {
		return 1e-12
	}
	return float32(math.Sqrt(variance))
}
