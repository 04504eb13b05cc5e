package quant

import (
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// GatherStats summarizes activation prediction over a set of output tiles —
// the quantities plotted in Fig. 12 and quoted in Section V-B.
type GatherStats struct {
	Tiles           int // tiles examined
	TrueNonActTiles int // oracle: all neurons of the tile < 0
	PredNonActTiles int // 2-D predict: tile provably non-activated
	Lines           int // tile lines examined (Tiles × m rows)
	TrueNonActLines int // oracle per line
	PredNonActLines int // 1-D predict per line
	FalseNegatives  int // predicted non-activated but actually activated (must stay 0)
}

// TileSkipRatio returns the fraction of tiles whose gathering is skipped
// under 2-D prediction.
func (s GatherStats) TileSkipRatio() float64 {
	if s.Tiles == 0 {
		return 0
	}
	return float64(s.PredNonActTiles) / float64(s.Tiles)
}

// LineSkipRatio returns the fraction of tile lines skipped under 1-D
// prediction.
func (s GatherStats) LineSkipRatio() float64 {
	if s.Lines == 0 {
		return 0
	}
	return float64(s.PredNonActLines) / float64(s.Lines)
}

// TrueTileRatio / TrueLineRatio are the oracle upper limits (the dotted
// lines of Fig. 12).
func (s GatherStats) TrueTileRatio() float64 {
	if s.Tiles == 0 {
		return 0
	}
	return float64(s.TrueNonActTiles) / float64(s.Tiles)
}

// TrueLineRatio is the oracle fraction of fully non-activated lines.
func (s GatherStats) TrueLineRatio() float64 {
	if s.Lines == 0 {
		return 0
	}
	return float64(s.TrueNonActLines) / float64(s.Lines)
}

// DomainSigma is EstimateSigma over every element matrix of d in element
// order — the concatenation El[0].Data ‖ El[1].Data ‖ … — streamed without
// building the concatenation, bit-equal to EstimateSigma of it.
//
//mptlint:noalloc
func DomainSigma(d *winograd.Domain) float32 {
	var m moments
	for _, el := range d.El {
		m.add(el.Data)
	}
	return m.sigma()
}

// MeasureGather runs both predictors over every (tile, output channel) of a
// Winograd-domain output Domain and tallies prediction quality. pred2D and
// pred1D may use different quantizers (the paper uses 6-bit for 2-D and
// 5-bit for 1-D). Prediction runs a Domain row at a time with the channels
// as lanes, as in the engine; the exact oracle runs per tile, through one
// reused tile and output, so the allocations do not grow with the tile
// count.
func MeasureGather(yd *winograd.Domain, pred2D, pred1D *Predictor) GatherStats {
	tr := yd.Tiling.Tr
	var s GatherStats
	tile := tensor.NewMat(tr.T, tr.T)
	out := tensor.NewMat(tr.M, tr.M)
	tmp := make([]float32, tr.TmpLen())
	l2, l1 := NewLanes(tr, yd.C), NewLanes(tr, yd.C)
	rows := yd.Rows()
	for row := 0; row < rows; row++ {
		pred2D.Predict2DRowInto(l2, yd, row)
		pred1D.Predict1DRowInto(l1, yd, row)
		for c := 0; c < yd.C; c++ {
			yd.TileInto(tile, row, c)
			s.Tiles++

			tr.OutputFromWinogradInto(out, tile, tmp) // the exact oracle
			trueTile := allNegative(out.Data)
			if trueTile {
				s.TrueNonActTiles++
			}
			if l2.nonActivated(c) {
				s.PredNonActTiles++
				if !trueTile {
					s.FalseNegatives++
				}
			}

			// 1-D prediction skips whole source lines (rows of the
			// Winograd-domain tile map to columns of Z; we count the m×m
			// output's rows, whose true status the per-row oracle gives).
			s.Lines += tr.M
			for r := 0; r < tr.M; r++ {
				trueRow := allNegative(out.Data[r*tr.M : (r+1)*tr.M])
				if trueRow {
					s.TrueNonActLines++
				}
				if l1.rowNonActivated(c, r) {
					s.PredNonActLines++
					if !trueRow {
						s.FalseNegatives++
					}
				}
			}
		}
	}
	return s
}

// ScatterZeroRatio returns the fraction of exactly-zero elements in a
// Winograd-domain input Domain — the data removable by zero-skipping during
// tile scattering (Section V-B: "zero values of input tiles can be
// omitted"). Zeros arise from ReLU sparsity in the previous layer's output.
func ScatterZeroRatio(xd *winograd.Domain) float64 {
	var zero, total int64
	for _, el := range xd.El {
		for _, v := range el.Data {
			if v == 0 {
				zero++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(zero) / float64(total)
}

// GatherTrafficReduction converts a skip ratio into the net communication
// reduction of tile gathering, accounting for the quantized prediction
// pre-send of codeBits per element: skipped tiles avoid their 32-bit
// payload, but every tile pays the quantized header.
func GatherTrafficReduction(skipRatio float64, codeBits int) float64 {
	overhead := float64(codeBits) / 32.0
	reduction := skipRatio - overhead
	if reduction < 0 {
		return 0
	}
	return reduction
}
