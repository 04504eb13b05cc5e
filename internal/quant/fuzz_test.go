package quant

import (
	"encoding/binary"
	"math"
	"testing"

	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// fuzzTransforms are the tile sizes the engine predicts on: T = 4, 6, 8.
var fuzzTransforms = []*winograd.Transform{winograd.F2x2_3x3, winograd.F4x4_3x3, winograd.F6x6_3x3}

// fuzzTile decodes a T×T tile from data as little-endian float32s,
// cycling through data when it is shorter than the tile (and reading
// zeros when it is empty).
func fuzzTile(tr *winograd.Transform, data []byte) *tensor.Mat {
	y := tensor.NewMat(tr.T, tr.T)
	if len(data) < 4 {
		return y
	}
	words := len(data) / 4
	for i := range y.Data {
		w := i % words
		y.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*w:]))
	}
	return y
}

// fuzzBytes encodes values as the little-endian float32 stream fuzzTile
// decodes.
func fuzzBytes(vals ...float32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// FuzzPredictorNeverUnderestimates fuzzes the activation predictor's
// safety invariant (Section V-A): for every neuron, estimate + maxErr must
// be an upper bound on the true inverse-transformed value, so a neuron
// predicted non-activated (est + maxErr < 0) is guaranteed non-activated —
// no false negatives, which is what keeps FpropReLU bit-exact under
// prediction. Both the 2-D and 1-D predictors must satisfy it for
// arbitrary Winograd-domain tiles of every tile size and quantizer
// calibrations, and both must stay bit-identical to the MatMul reference
// chain.
func FuzzPredictorNeverUnderestimates(f *testing.F) {
	f.Add(uint8(0), float32(1.0), fuzzBytes(0.5, -1.2, 2.0, 0.1, -0.3, 0.7, 1.5, -2.2,
		0.0, 3.1, -0.01, 0.99, -1.5, 0.25, -0.75, 1.1))
	f.Add(uint8(0), float32(0.5), fuzzBytes(-4))
	f.Add(uint8(0), float32(4), fuzzBytes(100, -100, 0, 1e-6, -1e-6, 50, -50, 0.5,
		12, -7, 3, -3, 8, -8, 0.1, -0.1))
	f.Add(uint8(1), float32(1.0), fuzzBytes(0.5, -1.2, 0, 0.1, -0.3, 0.7, 0, -2.2, 9, 3.1, -0.01))
	f.Add(uint8(1), float32(0.3), fuzzBytes(-2))
	f.Add(uint8(2), float32(1.0), fuzzBytes(0.5, -1.2, 2.0, 0, 0, 0.7, 1.5, -2.2, 40, -0.01, 0.99, -1.5, 0.25))
	f.Add(uint8(2), float32(2), fuzzBytes(-1))

	f.Fuzz(func(t *testing.T, sel uint8, sigma float32, data []byte) {
		tr := fuzzTransforms[int(sel)%len(fuzzTransforms)]
		y := fuzzTile(tr, data)
		for _, v := range y.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) || math.Abs(float64(v)) > 1e12 {
				t.Skip("degenerate tile value")
			}
		}
		if math.IsNaN(float64(sigma)) || math.IsInf(float64(sigma), 0) {
			t.Skip("degenerate sigma")
		}
		// Fold sigma into a sane calibration range; the invariant must hold
		// for any positive step, well- or badly-calibrated.
		s := math.Abs(float64(sigma))
		if s < 1e-6 {
			s = 1e-6
		}
		if s > 1e6 {
			s = 1e6
		}

		truth := tr.OutputFromWinograd(y)
		p := NewPredictor(tr, MustQuantizer(4, 6, float32(s)))
		pr := NewPrediction(tr)

		check := func(name string) {
			if pr.Overflow {
				// Overflowed tiles are treated as activated; no bound claimed.
				return
			}
			for i, est := range pr.Est.Data {
				bound := float64(est) + float64(pr.MaxErr.Data[i])
				tv := float64(truth.Data[i])
				// Allow float32 rounding slack proportional to magnitude.
				eps := 1e-3 * math.Max(1, math.Abs(tv))
				if bound < tv-eps {
					t.Fatalf("%s %s: neuron %d bound %v underestimates true value %v (tile %v, sigma %v)",
						tr, name, i, bound, tv, y.Data, s)
				}
			}
			// The operational consequence: predicted-non-activated tiles are
			// truly non-activated.
			if pr.NonActivated() && !TrueNonActivated(tr, y) {
				t.Fatalf("%s %s: false negative — tile predicted non-activated but activates (tile %v, sigma %v)",
					tr, name, y.Data, s)
			}
		}
		p.Predict2DInto(pr, y)
		check("Predict2D")
		p.Predict1DInto(pr, y)
		check("Predict1D")
		checkBitIdentical(t, p, pr, y)
	})
}
