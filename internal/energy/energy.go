// Package energy implements the paper's four-factor energy accounting
// (Section VII-B): compute units, SRAM access, DRAM access, and
// memory-centric-network link energy including idle link power. The model
// is linear per event, matching how the paper combines CACTI-3DD /
// CACTI 6.5 access energies with the published FP32 op energies.
package energy

// Params holds per-event energies. Compute constants are the paper's
// ("we used estimated values of 0.9pJ (3.7pJ) for 32bit FP ADD (MUL)");
// memory and link constants are representative 28 nm / 3D-stacked values
// in the range the cited tools produce (documented in DESIGN.md since the
// paper does not print them).
type Params struct {
	FP32AddPJ float64 // per FP32 addition
	FP32MulPJ float64 // per FP32 multiplication
	SRAMPJ    float64 // per byte, on-chip buffer access
	DRAMPJ    float64 // per byte, 3D-stacked DRAM access
	LinkPJ    float64 // per byte, serial link dynamic energy
	// LinkIdleW is the always-on power of one high-speed serial link
	// direction; the paper notes "the high-speed serial interface of the
	// I/O link consumes energy even in an idle state".
	LinkIdleW float64
}

// DefaultParams returns the evaluation configuration.
func DefaultParams() Params {
	return Params{
		FP32AddPJ: 0.9,
		FP32MulPJ: 3.7,
		SRAMPJ:    1.0,
		DRAMPJ:    30.0,
		LinkPJ:    16.0,
		LinkIdleW: 0.8,
	}
}

// Breakdown accumulates joules by component — the stacked bars of Fig. 15.
type Breakdown struct {
	ComputeJ float64
	SRAMJ    float64
	DRAMJ    float64
	LinkJ    float64
}

// Total returns the summed energy in joules.
func (b Breakdown) Total() float64 { return b.ComputeJ + b.SRAMJ + b.DRAMJ + b.LinkJ }

// Add merges another breakdown into b.
func (b *Breakdown) Add(o Breakdown) {
	b.ComputeJ += o.ComputeJ
	b.SRAMJ += o.SRAMJ
	b.DRAMJ += o.DRAMJ
	b.LinkJ += o.LinkJ
}

// Scale multiplies every component by k (e.g. per-worker → system).
func (b Breakdown) Scale(k float64) Breakdown {
	return Breakdown{ComputeJ: b.ComputeJ * k, SRAMJ: b.SRAMJ * k, DRAMJ: b.DRAMJ * k, LinkJ: b.LinkJ * k}
}

const pj = 1e-12

// MACs returns the energy of n multiply-accumulate operations (one mul +
// one add each).
func (p Params) MACs(n int64) Breakdown {
	return Breakdown{ComputeJ: float64(n) * (p.FP32AddPJ + p.FP32MulPJ) * pj}
}

// Adds returns the energy of n standalone FP32 additions (reduce blocks,
// vector post-processing).
func (p Params) Adds(n int64) Breakdown {
	return Breakdown{ComputeJ: float64(n) * p.FP32AddPJ * pj}
}

// SRAM returns the energy of moving n bytes through on-chip buffers.
func (p Params) SRAM(n int64) Breakdown {
	return Breakdown{SRAMJ: float64(n) * p.SRAMPJ * pj}
}

// DRAM returns the energy of n bytes of 3D-stacked DRAM traffic.
func (p Params) DRAM(n int64) Breakdown {
	return Breakdown{DRAMJ: float64(n) * p.DRAMPJ * pj}
}

// LinkTraffic returns the dynamic energy of n bytes crossing one link hop.
func (p Params) LinkTraffic(n int64) Breakdown {
	return Breakdown{LinkJ: float64(n) * p.LinkPJ * pj}
}

// LinkIdle returns the static energy of links powered for seconds s. The
// paper turns off unused links "for fair energy comparison", so callers
// pass only the active link count.
func (p Params) LinkIdle(links int, s float64) Breakdown {
	return Breakdown{LinkJ: float64(links) * p.LinkIdleW * s}
}
