package quant

import (
	"math"
	"math/rand"
	"testing"

	"mptwino/internal/conv"
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// oraclePredict2D is 2-D prediction of one T×T tile as a chain of six
// per-tile schedule products: Z = Q·A, P = R·A⁺ and N = R·A⁻ by
// right-multiplying with Sched.MulTInto, then Est = Aᵀ·Z and
// MaxErr = Aᵀ⁺·P + Aᵀ⁻·N with Sched.MulInto. The lane kernel must
// reproduce its Est, MaxErr and Overflow bit for bit.
func oraclePredict2D(p *Predictor, y *tensor.Mat) (est, maxErr []float32, overflow bool) {
	t, m := p.Tr.T, p.Tr.M
	qv, res := make([]float32, t*t), make([]float32, t*t)
	overflow = p.Q.QuantizeSlice(y.Data, qv, res)
	z, pos, neg := make([]float32, t*m), make([]float32, t*m), make([]float32, t*m)
	p.at.MulTInto(z, qv, t)
	p.atPos.MulTInto(pos, res, t)
	p.atNeg.MulTInto(neg, res, t)
	est, maxErr, negErr := make([]float32, m*m), make([]float32, m*m), make([]float32, m*m)
	p.at.MulInto(est, z, m)
	p.atPos.MulInto(maxErr, pos, m)
	p.atNeg.MulInto(negErr, neg, m)
	for i, v := range negErr {
		maxErr[i] += v
	}
	return est, maxErr, overflow
}

// oraclePredict1D is 1-D prediction of one tile as a per-tile chain:
// Z = y·A exactly (MulTInto), quantized, then Est = Aᵀ·Q(Z) and
// MaxErr = Aᵀ⁺·R(Z) (MulInto).
func oraclePredict1D(p *Predictor, y *tensor.Mat) (est, maxErr []float32, overflow bool) {
	t, m := p.Tr.T, p.Tr.M
	z := make([]float32, t*m)
	p.at.MulTInto(z, y.Data, t)
	qv, res := make([]float32, t*m), make([]float32, t*m)
	overflow = p.Q.QuantizeSlice(z, qv, res)
	est, maxErr = make([]float32, m*m), make([]float32, m*m)
	p.at.MulInto(est, qv, m)
	p.atPos.MulInto(maxErr, res, m)
	return est, maxErr, overflow
}

// allNegativeSum reports whether est[i] + maxErr[i] < 0 for every i: the
// oracle's skip decision over a tile's (or an output row's) neurons.
func allNegativeSum(est, maxErr []float32) bool {
	for i, e := range est {
		if !(e+maxErr[i] < 0) {
			return false
		}
	}
	return true
}

// laneDomain is an output Domain of c channels for tr whose values mix
// what prediction must get right: Gaussian values leaning negative (so
// tiles are skipped), ±0, exact grid points of q and their negatives,
// values far past q's range, NaN and ±Inf.
func laneDomain(t *testing.T, tr *winograd.Transform, q *Quantizer, c int, rng *rand.Rand) *winograd.Domain {
	t.Helper()
	tl, err := winograd.NewTiling(tr, conv.Params{In: 1, Out: c, K: tr.R, Pad: tr.R / 2, H: 3 * tr.M, W: 2 * tr.M})
	if err != nil {
		t.Fatal(err)
	}
	d := winograd.NewDomain(tl, 2, c)
	// A tile holding any of the rare values overflows and is gathered, so
	// their odds fall with the tile's T² elements.
	rare := 1 / float64(len(d.El))
	for _, el := range d.El {
		for i := range el.Data {
			var v float32
			switch u := rng.Float64(); {
			case u < 0.1*rare:
				v = float32(math.NaN())
			case u < 0.2*rare:
				v = float32(math.Inf(1 - 2*rng.Intn(2)))
			case u < 0.4*rare:
				v = float32(rng.NormFloat64() * 100) // far past the range
			case u < 0.1:
				v = float32(math.Copysign(0, rng.Float64()-0.5))
			case u < 0.25:
				// A grid point of the first two regions, or a region
				// boundary S·(2^r − 1), of either sign.
				g := rng.Intn(3*q.StepsPerRegion + 1)
				if rng.Intn(4) == 0 {
					g = q.StepsPerRegion * (1<<rng.Intn(q.Regions) - 1)
				}
				v = q.Delta * float32(g) * float32(1-2*rng.Intn(2))
			default:
				v = float32(rng.NormFloat64()*0.3 - 0.4)
			}
			el.Data[i] = v
		}
	}
	return d
}

// TestLanePredictorMatchesPerTileOracle: channel-lane prediction of whole
// Domain rows, and its one-lane case on single tiles (Predict2DInto,
// Predict1DInto), reproduce the per-tile schedule chain's Est, MaxErr,
// Overflow and skip decisions (per tile and per output row) bit for bit,
// for F(2×2,3×3), F(4×4,3×3), F(6×6,3×3) and F(2×2,5×5) at
// C ∈ {1, 3, 48}, into reused buffers.
func TestLanePredictorMatchesPerTileOracle(t *testing.T) {
	q := MustQuantizer(4, 6, 1)
	for _, tr := range []*winograd.Transform{winograd.F2x2_3x3, winograd.F4x4_3x3, winograd.F6x6_3x3, winograd.F2x2_5x5} {
		p := NewPredictor(tr, q)
		pr := NewPrediction(tr)
		tile := tensor.NewMat(tr.T, tr.T)
		var skips [2]int // tiles skipped, gathered
		for _, c := range []int{1, 3, 48} {
			rng := rand.New(rand.NewSource(int64(tr.T*100 + c)))
			d := laneDomain(t, tr, q, c, rng)
			l := NewLanes(tr, c)
			for _, mode := range []struct {
				name   string
				row    func(*Lanes, *winograd.Domain, int)
				tile   func(*Prediction, *tensor.Mat)
				oracle func(*Predictor, *tensor.Mat) ([]float32, []float32, bool)
			}{
				{"2D", p.Predict2DRowInto, p.Predict2DInto, oraclePredict2D},
				{"1D", p.Predict1DRowInto, p.Predict1DInto, oraclePredict1D},
			} {
				for r := 0; r < d.Rows(); r++ {
					mode.row(l, d, r)
					for ch := 0; ch < c; ch++ {
						d.TileInto(tile, r, ch)
						est, maxErr, ov := mode.oracle(p, tile)
						skip := !ov && allNegativeSum(est, maxErr)
						mode.tile(pr, tile)
						if pr.Overflow != ov || pr.NonActivated() != skip {
							t.Fatalf("%s %s one lane, tile (%d,%d): Overflow/skip %v/%v, oracle %v/%v",
								tr, mode.name, r, ch, pr.Overflow, pr.NonActivated(), ov, skip)
						}
						if l.overflow[ch] != ov || l.nonActivated(ch) != skip {
							t.Fatalf("%s %s C=%d, tile (%d,%d): Overflow/skip %v/%v, oracle %v/%v",
								tr, mode.name, c, r, ch, l.overflow[ch], l.nonActivated(ch), ov, skip)
						}
						m := tr.M
						for i := 0; i < m; i++ {
							rowSkip := !ov && allNegativeSum(est[i*m:(i+1)*m], maxErr[i*m:(i+1)*m])
							if l.rowNonActivated(ch, i) != rowSkip || pr.RowNonActivated(i) != rowSkip {
								t.Fatalf("%s %s C=%d, tile (%d,%d) output row %d: skip %v (lanes), %v (one lane), oracle %v",
									tr, mode.name, c, r, ch, i, l.rowNonActivated(ch, i), pr.RowNonActivated(i), rowSkip)
							}
						}
						for i := range est {
							want := [2]uint32{math.Float32bits(est[i]), math.Float32bits(maxErr[i])}
							lane := [2]uint32{math.Float32bits(l.est[i*c+ch]), math.Float32bits(l.maxErr[i*c+ch])}
							one := [2]uint32{math.Float32bits(pr.Est.Data[i]), math.Float32bits(pr.MaxErr.Data[i])}
							if lane != want || one != want {
								t.Fatalf("%s %s C=%d, tile (%d,%d) neuron %d: Est/MaxErr bits %x (lanes), %x (one lane), oracle %x",
									tr, mode.name, c, r, ch, i, lane, one, want)
							}
						}
						if skip {
							skips[0]++
						} else {
							skips[1]++
						}
					}
				}
			}
		}
		if skips[0] == 0 || skips[1] == 0 {
			t.Fatalf("%s: %d tiles skipped, %d gathered; the inputs must exercise both", tr, skips[0], skips[1])
		}
	}
}
