package exec

import (
	"math/bits"

	"bcq/internal/slottab"
	"bcq/internal/value"
)

// This file holds the executor's hashed sets. Every set the hot path
// probes per fetched tuple — candidate values, verified rows, distinct
// answers — is keyed by a 64-bit hash of the values and confirmed by an
// equality check against the stored element, so a probe builds no key
// string and a hash collision can cost a comparison but never change a
// membership answer. Elements live in insertion order in plain slices
// (rows in chunked arenas), which keeps every iteration order the
// executor exposes independent of the hash function. The hash index
// itself is slottab.Table, shared with the live store. The |D_Q| set
// (dqSet) needs no separate hash: its keys are packed integers, stored
// in the table itself.

// candSet is one class's candidate values: insertion-ordered (for
// deterministic combo enumeration) with O(1) membership.
type candSet struct {
	vals []value.Value
	idx  slottab.Table
}

func (s *candSet) add(v value.Value) {
	if _, found := s.idx.Insert(v.Hash(), func(i int) bool { return s.vals[i] == v }); !found {
		s.vals = append(s.vals, v)
	}
}

func (s *candSet) has(v value.Value) bool {
	if len(s.vals) == 0 {
		return false
	}
	return s.idx.Find(v.Hash(), func(i int) bool { return s.vals[i] == v }) >= 0
}

// rowSet is an insertion-ordered set of equal-width rows. Admitted rows
// are copied into arena chunks that are only ever appended to, so a row
// the set hands out — a verified table row, an answer returned by
// Stream.Next and kept by a result cache or a cursor — is never
// overwritten. Chunks are sized from the set's own size (doubling up to a
// cap), so a point query's few rows cost one small chunk.
type rowSet struct {
	width int
	rows  []value.Tuple
	idx   slottab.Table
	// chunk is the unused tail of the current arena chunk.
	chunk []value.Value
}

// rowChunkMax caps an arena chunk at this many rows.
const rowChunkMax = 4096

// insert admits a copy of row (whose hash is h) unless an equal row is
// present, and reports whether it did; row itself is not retained, so
// callers can pass a reused scratch row.
func (s *rowSet) insert(h uint64, row value.Tuple) bool {
	if _, found := s.idx.Insert(h, func(i int) bool { return s.rows[i].Equal(row) }); found {
		return false
	}
	s.rows = append(s.rows, s.alloc(row))
	return true
}

// alloc copies row into the arena.
func (s *rowSet) alloc(row value.Tuple) value.Tuple {
	w := s.width
	// A zero-width row (a Boolean query's answer) must still be a non-nil
	// empty tuple, so it gets its own zero-length chunk.
	if len(s.chunk) < w || w == 0 {
		n := min(max(len(s.rows), 8), rowChunkMax)
		s.chunk = make([]value.Value, n*w)
	}
	r := s.chunk[:w:w]
	s.chunk = s.chunk[w:]
	copy(r, row)
	return r
}

// dqSet is one relation's fetched tuples: an open-addressing set of
// packed (shard, position) keys — shards below 2^24, positions below
// 2^40 — stored plus one so a zero slot marks empty. It holds no
// pointers for the collector to scan.
type dqSet struct {
	slots []uint64
	n     int
	shift uint // 64 - log2(len(slots))
}

// add inserts k and reports whether it was new.
func (m *dqSet) add(k uint64) bool {
	if 4*(m.n+1) > 3*len(m.slots) {
		m.grow()
	}
	k++
	mask := len(m.slots) - 1
	for p := m.slot(k); ; p = (p + 1) & mask {
		switch m.slots[p] {
		case 0:
			m.slots[p] = k
			m.n++
			return true
		case k:
			return false
		}
	}
}

// slot is k's home slot (Fibonacci hashing: positions are dense, so
// the multiply spreads consecutive keys across the table).
func (m *dqSet) slot(k uint64) int { return int((k * 0x9e3779b97f4a7c15) >> m.shift) }

func (m *dqSet) grow() {
	old := m.slots
	n := max(2*len(old), 16)
	m.slots = make([]uint64, n)
	m.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := n - 1
	for _, k := range old {
		if k == 0 {
			continue
		}
		p := m.slot(k)
		for m.slots[p] != 0 {
			p = (p + 1) & mask
		}
		m.slots[p] = k
	}
}
