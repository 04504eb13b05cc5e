package winograd

import (
	"fmt"

	"mptwino/internal/conv"
)

// Tiling decomposes a convolution layer's feature maps into the overlapping
// T×T input tiles / m×m output tiles of the tile-based Winograd algorithm
// (Section II-B). Input tiles advance with stride m and overlap by r−1;
// out-of-range taps are zero (the layer's padding).
type Tiling struct {
	Tr *Transform
	P  conv.Params

	TilesH, TilesW int // tile grid dimensions
}

// NewTiling validates the layer geometry against the transform and returns
// the tile decomposition.
func NewTiling(tr *Transform, p conv.Params) (*Tiling, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.K != tr.R {
		return nil, fmt.Errorf("winograd: kernel %dx%d does not match transform %s", p.K, p.K, tr)
	}
	m := tr.M
	return &Tiling{
		Tr:     tr,
		P:      p,
		TilesH: (p.OutH() + m - 1) / m,
		TilesW: (p.OutW() + m - 1) / m,
	}, nil
}

// Tiles returns the number of tiles per feature map (the paper's t).
func (tl *Tiling) Tiles() int { return tl.TilesH * tl.TilesW }
