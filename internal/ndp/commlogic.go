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

// Chunk is one pipelined-collective packet: a slice of a weight-gradient
// message (Section VI-C uses 256-byte chunks).
type Chunk struct {
	MsgID int
	Index int
	Data  []float32
}

// ReduceBlock implements the out-of-order chunk handling of Fig. 13(c):
// chunks of the same message arrive in order, but chunks from different
// messages interleave arbitrarily. Each block owns one message's
// communication buffer; Accept either stores a new chunk or elementwise-
// accumulates into the stored one, and reports when the chunk is ready to
// forward to the next ring hop. Reset and Recycle let one block serve a
// whole ring schedule without fresh storage per hop.
type ReduceBlock struct {
	MsgID    int
	expected int // contributions required per chunk before forwarding
	buf      map[int][]float32
	count    map[int]int
	adds     int64
	spare    []float32 // buffer handed back through Recycle
}

// NewReduceBlock builds a block for msgID that forwards each chunk after
// contributions arrivals (ring reduce: 1 local + 1 upstream = 2... the
// caller decides; for a plain store-and-forward hop use 1).
func NewReduceBlock(msgID, contributions int) *ReduceBlock {
	if contributions < 1 {
		panic("ndp: ReduceBlock needs at least one contribution")
	}
	return &ReduceBlock{
		MsgID:    msgID,
		expected: contributions,
		buf:      make(map[int][]float32),
		count:    make(map[int]int),
	}
}

// Reset readies the block for message msgID as if newly built, keeping
// its storage: chunks still pending are dropped and the adds tally
// restarts. A handed-back buffer stays available.
func (r *ReduceBlock) Reset(msgID int) {
	r.MsgID = msgID
	clear(r.buf)
	clear(r.count)
	r.adds = 0
}

// Recycle hands a buffer back to the block: the next chunk that arrives
// first is stored in it, when it is at least as long as the chunk, instead
// of in fresh storage; the block never writes past the buffer's length. The
// caller gives up the buffer until Accept releases it again. A caller may
// hand back the first chunk's own data, which makes the block reduce that
// chunk in place.
func (r *ReduceBlock) Recycle(buf []float32) { r.spare = buf }

// ChunkError reports a chunk a ReduceBlock cannot merge: one of a foreign
// message, or one whose size differs from the chunk already stored at its
// index.
type ChunkError struct {
	BlockMsg int   // message the block reduces
	Chunk    Chunk // the rejected chunk
	Stored   int   // length of the stored chunk, for a size mismatch
}

func (e ChunkError) Error() string {
	if e.Chunk.MsgID != e.BlockMsg {
		return fmt.Sprintf("ndp: reduce block for msg %d got chunk of msg %d", e.BlockMsg, e.Chunk.MsgID)
	}
	return fmt.Sprintf("ndp: chunk %d size mismatch %d vs %d", e.Chunk.Index, e.Stored, len(e.Chunk.Data))
}

// Accept merges a chunk. It returns the reduced data when the chunk has
// received all contributions (ready to send to the next worker), or nil
// while it waits. Chunks for foreign messages are rejected, as are chunks
// whose size differs from the stored one; both return a ChunkError.
func (r *ReduceBlock) Accept(c Chunk) ([]float32, error) {
	if c.MsgID != r.MsgID {
		return nil, ChunkError{BlockMsg: r.MsgID, Chunk: c}
	}
	stored, ok := r.buf[c.Index]
	if !ok {
		cp := r.storage(len(c.Data))
		copy(cp, c.Data)
		r.buf[c.Index] = cp
		r.count[c.Index] = 1
	} else {
		if len(stored) != len(c.Data) {
			return nil, ChunkError{BlockMsg: r.MsgID, Chunk: c, Stored: len(stored)}
		}
		for i, v := range c.Data {
			stored[i] += v
		}
		r.adds += int64(len(c.Data))
		r.count[c.Index]++
	}
	if r.count[c.Index] >= r.expected {
		out := r.buf[c.Index]
		delete(r.buf, c.Index)
		delete(r.count, c.Index)
		return out, nil
	}
	return nil, nil
}

// storage returns n floats for a first-arriving chunk: the handed-back
// buffer when it holds n, fresh storage otherwise. The fit is decided by
// length, not capacity: the capacity of a handed-back slice may run over
// memory the caller still owns.
func (r *ReduceBlock) storage(n int) []float32 {
	if len(r.spare) >= n {
		b := r.spare[:n]
		r.spare = nil
		return b
	}
	return make([]float32, n)
}

// Adds returns the FP32 additions performed (for energy accounting).
func (r *ReduceBlock) Adds() int64 { return r.adds }

// Pending returns the number of chunks buffered awaiting contributions.
func (r *ReduceBlock) Pending() int { return len(r.buf) }
