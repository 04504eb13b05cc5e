package ndp

import "fmt"

// ActivationMap records which transfer units (tiles, lines, or elements)
// carry data. It is shared between source and destination workers so the
// receiver can re-expand packed payloads (Section VI-C: "the information of
// skipped data ... is shared ... through activation map of input and
// output tiles").
type ActivationMap struct {
	Live []bool
}

// NewActivationMap builds a map of n units, all live.
func NewActivationMap(n int) *ActivationMap {
	m := &ActivationMap{Live: make([]bool, n)}
	for i := range m.Live {
		m.Live[i] = true
	}
	return m
}

// Kill marks unit i as skipped (predicted non-activated or zero).
func (m *ActivationMap) Kill(i int) { m.Live[i] = false }

// LiveCount returns the number of units that must be transferred.
func (m *ActivationMap) LiveCount() int {
	n := 0
	for _, l := range m.Live {
		if l {
			n++
		}
	}
	return n
}

// PackingDMA implements the pointer-shift-register packing of Fig. 13(b):
// instead of shifting data through registers, per-unit pointers select the
// live units, which are then packetized in order. Pack gathers the live
// units of data (unitLen values each) into a dense payload; Unpack
// re-expands a payload at the receiver, zero-filling skipped units.
type PackingDMA struct {
	UnitLen int // values per transfer unit
}

// Pack returns the dense payload for data under the activation map.
// len(data) must be len(m.Live)·UnitLen.
func (p PackingDMA) Pack(data []float32, m *ActivationMap) []float32 {
	if len(data) != len(m.Live)*p.UnitLen {
		panic(fmt.Sprintf("ndp: pack length %d != %d units × %d", len(data), len(m.Live), p.UnitLen))
	}
	out := make([]float32, 0, m.LiveCount()*p.UnitLen)
	for i, live := range m.Live {
		if live {
			out = append(out, data[i*p.UnitLen:(i+1)*p.UnitLen]...)
		}
	}
	return out
}

// Unpack expands payload back to the full unit array, writing zeros for
// skipped units (the receiver-side zero fill of zero-skipping).
func (p PackingDMA) Unpack(payload []float32, m *ActivationMap) []float32 {
	if len(payload) != m.LiveCount()*p.UnitLen {
		panic(fmt.Sprintf("ndp: unpack payload %d != %d live units × %d", len(payload), m.LiveCount(), p.UnitLen))
	}
	out := make([]float32, len(m.Live)*p.UnitLen)
	pos := 0
	for i, live := range m.Live {
		if live {
			copy(out[i*p.UnitLen:(i+1)*p.UnitLen], payload[pos:pos+p.UnitLen])
			pos += p.UnitLen
		}
	}
	return out
}
