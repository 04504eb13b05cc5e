// Package ndp models one near-data-processing worker of Section VI: the
// logic-layer compute units (systolic array + vector processor), the
// 3D-stacked DRAM bandwidth, the double-buffered SRAM, and the packing DMA
// for tile transfer. The other communication processing element, the
// Reduce block of ring collectives (Fig. 13(c)), is modelled where its two
// halves act: internal/cosim holds ring chunks that arrive before the
// local gradient (pendingFwd), and internal/mpt's ring adds each hop's
// contribution in place. The §VI-A task scheduler with its update-counter
// dependency checks runs in internal/cosim, which drives each worker's
// task pipeline at this package's timing model.
package ndp

// Config is the per-worker hardware configuration of Section VI-B /
// Table III.
type Config struct {
	SystolicDim int     // S: S×S MAC array (64 for FP32; 96 for the FP16 variant)
	ClockHz     float64 // logic and router clock, 1 GHz
	DRAMBw      float64 // bytes/sec of local 3D-stacked DRAM (320 GB/s)
	DRAMEff     float64 // achievable fraction under FR-FCFS streaming (0<eff<=1)
	// VectorLanes is the aggregate FP32 op throughput per cycle of the
	// vector processor plus the dedicated transformation units in the
	// communication logic (Fig. 13(b)) — Winograd transforms are streaming
	// multiply-adds pipelined with the systolic array, so their combined
	// width must be a sizable fraction of the array's edge throughput.
	VectorLanes int

	InputBufBytes  int // per instance; double-buffered ×2 (512 KB each)
	OutputBufBytes int // 128 KB
}

// DefaultConfig returns the paper's FP32 worker: 64×64 MACs @1 GHz,
// 320 GB/s DRAM, 512 KB double-buffered input SRAM, 128 KB output SRAM.
func DefaultConfig() Config {
	return Config{
		SystolicDim:    64,
		ClockHz:        1e9,
		DRAMBw:         320e9,
		DRAMEff:        0.8,
		VectorLanes:    512,
		InputBufBytes:  512 << 10,
		OutputBufBytes: 128 << 10,
	}
}

// PeakMACsPerSec returns the array's peak MAC throughput.
func (c Config) PeakMACsPerSec() float64 {
	return float64(c.SystolicDim*c.SystolicDim) * c.ClockHz
}

// MatmulCycles returns the systolic-array cycle count for an (m×k)·(k×n)
// matrix multiplication: the output is tiled into S×S blocks; each block
// streams k partial sums plus an S-cycle drain, with one side of the input
// held in the reuse buffer (Section VI-B).
func (c Config) MatmulCycles(m, k, n int64) int64 {
	if m <= 0 || k <= 0 || n <= 0 {
		return 0
	}
	s := int64(c.SystolicDim)
	tiles := ((m + s - 1) / s) * ((n + s - 1) / s)
	return tiles * (k + s)
}

// MatmulSeconds converts MatmulCycles to seconds.
func (c Config) MatmulSeconds(m, k, n int64) float64 {
	return float64(c.MatmulCycles(m, k, n)) / c.ClockHz
}

// VectorCycles returns the vector-unit cycle count for n streaming FP32
// operations (transform multiply-adds, ReLU, pooling, joins).
func (c Config) VectorCycles(n int64) int64 {
	if n <= 0 {
		return 0
	}
	lanes := int64(c.VectorLanes)
	return (n + lanes - 1) / lanes
}

// DRAMSeconds returns the time to stream n bytes through local DRAM at the
// effective bandwidth.
func (c Config) DRAMSeconds(n int64) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) / (c.DRAMBw * c.DRAMEff)
}

// PhaseSeconds combines one compute phase's systolic time, vector time and
// DRAM time under double buffering: compute overlaps DRAM streaming, so
// the phase takes the maximum of the three, not the sum — the balance
// Section VI-B sizes the array for ("the number of MAC units was
// determined ... to balance the computation with the available DRAM
// bandwidth").
func PhaseSeconds(systolic, vector, dram float64) float64 {
	t := systolic
	if vector > t {
		t = vector
	}
	if dram > t {
		t = dram
	}
	return t
}

// WeightsFitInBuffer reports whether a Winograd-domain weight shard fits in
// the double-buffered input SRAM — the condition for the "half of the
// input data ... unchanged and reused from the on-chip buffer" streaming
// pattern.
func (c Config) WeightsFitInBuffer(shardBytes int64) bool {
	return shardBytes <= int64(c.InputBufBytes)
}
