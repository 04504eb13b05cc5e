package energy

import (
	"math"
	"testing"
)

func almost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*(1+math.Abs(a)+math.Abs(b))
}

func TestMACEnergyUsesPaperConstants(t *testing.T) {
	p := DefaultParams()
	// One MAC = 0.9 + 3.7 pJ.
	b := p.MACs(1)
	if !almost(b.ComputeJ, 4.6e-12) {
		t.Fatalf("MAC energy = %v", b.ComputeJ)
	}
	if !almost(p.Adds(10).ComputeJ, 9e-12) {
		t.Fatal("add energy wrong")
	}
}

func TestMemoryAndLinkEnergy(t *testing.T) {
	p := DefaultParams()
	if !almost(p.DRAM(1000).DRAMJ, 30e-9) {
		t.Fatal("DRAM energy wrong")
	}
	if !almost(p.SRAM(1000).SRAMJ, 1e-9) {
		t.Fatal("SRAM energy wrong")
	}
	if !almost(p.LinkTraffic(1000).LinkJ, 16e-9) {
		t.Fatal("link dynamic energy wrong")
	}
	// 4 links idle for 2 seconds at 0.8 W each.
	if !almost(p.LinkIdle(4, 2).LinkJ, 6.4) {
		t.Fatal("link idle energy wrong")
	}
}

func TestBreakdownAddScaleTotal(t *testing.T) {
	b := Breakdown{ComputeJ: 1, SRAMJ: 2, DRAMJ: 3, LinkJ: 4}
	if b.Total() != 10 {
		t.Fatalf("Total = %v", b.Total())
	}
	b.Add(Breakdown{ComputeJ: 1, LinkJ: 1})
	if b.ComputeJ != 2 || b.LinkJ != 5 {
		t.Fatal("Add wrong")
	}
	s := b.Scale(2)
	if s.SRAMJ != 4 || s.DRAMJ != 6 {
		t.Fatal("Scale wrong")
	}
	// Scale must not mutate the receiver.
	if b.SRAMJ != 2 {
		t.Fatal("Scale mutated receiver")
	}
}

// TestDRAMDominatesCompute reflects the paper's Fig. 15 observation that
// Winograd's extra data access makes DRAM energy significant relative to
// compute: per byte, DRAM costs ~6.5× a MAC.
func TestRelativeMagnitudes(t *testing.T) {
	p := DefaultParams()
	if p.DRAM(1).DRAMJ <= p.MACs(1).ComputeJ {
		t.Fatal("a DRAM byte should cost more than a MAC")
	}
	if p.SRAM(1).SRAMJ >= p.DRAM(1).DRAMJ {
		t.Fatal("SRAM must be cheaper than DRAM")
	}
}
