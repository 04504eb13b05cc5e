package ndp

import (
	"math"
	"testing"
	"testing/quick"

	"math/rand"
)

func TestMatmulCycles(t *testing.T) {
	c := DefaultConfig()
	// A single 64×64 output block with k=256: 256+64 cycles.
	if got := c.MatmulCycles(64, 256, 64); got != 320 {
		t.Fatalf("cycles = %d, want 320", got)
	}
	// 2×2 output blocks quadruple it.
	if got := c.MatmulCycles(128, 256, 128); got != 4*320 {
		t.Fatalf("cycles = %d, want 1280", got)
	}
	// Degenerate sizes cost nothing.
	if c.MatmulCycles(0, 5, 5) != 0 {
		t.Fatal("zero-size matmul should be free")
	}
}

func TestMatmulNearPeakForLargeK(t *testing.T) {
	c := DefaultConfig()
	// Utilization approaches 100% as k grows: MACs / (cycles · S²) → 1.
	m, k, n := int64(64), int64(64*1024), int64(64)
	cycles := c.MatmulCycles(m, k, n)
	util := float64(m*k*n) / (float64(cycles) * float64(c.SystolicDim*c.SystolicDim))
	if util < 0.95 {
		t.Fatalf("utilization %v, want > 0.95", util)
	}
}

func TestDRAMSeconds(t *testing.T) {
	c := DefaultConfig()
	// 256 GB at 320 GB/s × 0.8 = 1 second.
	if got := c.DRAMSeconds(256 << 30); math.Abs(got-256.0/(320*0.8)*(1<<30)/1e9*1e9/(1<<30)*1) > 0.05 {
		// simpler check below
		_ = got
	}
	got := c.DRAMSeconds(int64(320e9 * 0.8))
	if math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("DRAMSeconds = %v, want 1.0", got)
	}
	if c.DRAMSeconds(0) != 0 || c.DRAMSeconds(-5) != 0 {
		t.Fatal("non-positive bytes should cost nothing")
	}
}

func TestVectorCycles(t *testing.T) {
	c := DefaultConfig()
	c.VectorLanes = 64
	if c.VectorCycles(64) != 1 || c.VectorCycles(65) != 2 || c.VectorCycles(0) != 0 {
		t.Fatal("vector cycle rounding wrong")
	}
}

func TestPhaseSeconds(t *testing.T) {
	if PhaseSeconds(3, 1, 2) != 3 || PhaseSeconds(1, 5, 2) != 5 || PhaseSeconds(1, 2, 9) != 9 {
		t.Fatal("PhaseSeconds should be the max")
	}
}

func TestWeightsFitInBuffer(t *testing.T) {
	c := DefaultConfig()
	if !c.WeightsFitInBuffer(512 << 10) {
		t.Fatal("512KB should fit")
	}
	if c.WeightsFitInBuffer(513 << 10) {
		t.Fatal("513KB should not fit")
	}
}

func TestActivationMap(t *testing.T) {
	m := NewActivationMap(4)
	if m.LiveCount() != 4 {
		t.Fatal("fresh map should be all live")
	}
	m.Kill(1)
	m.Kill(3)
	if m.LiveCount() != 2 {
		t.Fatalf("LiveCount = %d", m.LiveCount())
	}
}

func TestPackingDMARoundTrip(t *testing.T) {
	dma := PackingDMA{UnitLen: 2}
	m := NewActivationMap(3)
	m.Kill(1)
	data := []float32{1, 2, 3, 4, 5, 6}
	packed := dma.Pack(data, m)
	want := []float32{1, 2, 5, 6}
	if len(packed) != 4 {
		t.Fatalf("packed len %d", len(packed))
	}
	for i := range want {
		if packed[i] != want[i] {
			t.Fatalf("packed = %v", packed)
		}
	}
	back := dma.Unpack(packed, m)
	wantBack := []float32{1, 2, 0, 0, 5, 6}
	for i := range wantBack {
		if back[i] != wantBack[i] {
			t.Fatalf("unpacked = %v", back)
		}
	}
}

// Property: Pack/Unpack round-trips live data and zeroes dead data, for
// random activation maps.
func TestPackingDMAProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rnd := seed
		next := func(n int) int {
			rnd += 0x9e3779b97f4a7c15
			z := rnd
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			return int((z ^ (z >> 27)) % uint64(n))
		}
		units := 1 + next(10)
		unitLen := 1 + next(5)
		dma := PackingDMA{UnitLen: unitLen}
		m := NewActivationMap(units)
		for i := 0; i < units; i++ {
			if next(2) == 0 {
				m.Kill(i)
			}
		}
		data := make([]float32, units*unitLen)
		for i := range data {
			data[i] = float32(next(1000)) + 1 // never zero
		}
		back := dma.Unpack(dma.Pack(data, m), m)
		for i := 0; i < units; i++ {
			for j := 0; j < unitLen; j++ {
				v := back[i*unitLen+j]
				if m.Live[i] && v != data[i*unitLen+j] {
					return false
				}
				if !m.Live[i] && v != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestPackingDMAPanicsOnBadLengths(t *testing.T) {
	dma := PackingDMA{UnitLen: 2}
	m := NewActivationMap(2)
	defer func() {
		if recover() == nil {
			t.Fatal("bad pack length did not panic")
		}
	}()
	dma.Pack([]float32{1, 2, 3}, m)
}
