package live

import (
	"bcq/internal/slottab"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// This file holds the store's writer-side bookkeeping: for each relation,
// where every live occurrence of a tuple lives, and for each constraint
// on it, where every live occurrence of each (X, Y) pair lives. Only
// writes read it — a delete must find a live occurrence of its tuple and,
// when it removes a pair's witness, re-witness the pair to the next live
// occurrence; LiveCount reports multiplicities — so it is built lazily,
// on the first write, LiveCount or ExtendAccess that touches a relation,
// with one pass over the current snapshot's live tuples. A store that is
// only read never builds it, and opening one allocates nothing per tuple.
//
// The tables hold integers only. A key (a tuple, or a pair) is a
// slottab.Table element found by its hash and confirmed by comparing the
// relation's own tuple at one of the key's positions, so no key string is
// ever built and the collector never scans the tables' contents.

// chain is one key's live positions, in live order: the first and last,
// and how many. When a key's last position dies its element stays (the
// table cannot remove one) and head keeps pointing at the dead position,
// whose tuple stays readable until the next Compact, so it still stands
// for the key in equality checks and the key's next occurrence reuses
// the element.
type chain struct{ head, tail, n int32 }

// chains groups the positions of one relation by key. Each position
// belongs to at most one chain, so one next-array over positions links
// them all. Positions are ints below 2^31; a table covers the positions
// from off on (0 for a store's tables, the batch's first position for a
// batch's own).
type chains struct {
	tab  slottab.Table
	keys []chain
	// next[pos-off] is the position after pos in its chain. Entries at a
	// chain's tail, and at positions no chain holds, are stale: walks stop
	// after n positions and never read them.
	next []int32
	off  int
}

// add appends pos — beyond every position added so far — to its key's
// chain; eq(p) reports whether the tuple at a recorded position p carries
// the key, and h is the key's hash. It reports whether the key had no
// live position before.
func (c *chains) add(h uint64, pos int, eq func(pos int) bool) (fresh bool) {
	if d := pos - c.off + 1 - len(c.next); d > 0 {
		c.next = append(c.next, make([]int32, d)...)
	}
	i, found := c.tab.Insert(h, func(i int) bool { return eq(int(c.keys[i].head)) })
	p := int32(pos)
	if !found {
		c.keys = append(c.keys, chain{head: p, tail: p, n: 1})
		return true
	}
	k := &c.keys[i]
	if k.n == 0 {
		*k = chain{head: p, tail: p, n: 1}
		return true
	}
	c.next[int(k.tail)-c.off] = p
	k.tail = p
	k.n++
	return false
}

// find returns the element of the key with hash h, or -1 when the key
// was never added.
func (c *chains) find(h uint64, eq func(pos int) bool) int {
	return c.tab.Find(h, func(i int) bool { return eq(int(c.keys[i].head)) })
}

// first returns the first position of the key's chain for which ok
// holds.
func (c *chains) first(h uint64, eq, ok func(pos int) bool) (int, bool) {
	i := c.find(h, eq)
	if i < 0 {
		return 0, false
	}
	k := c.keys[i]
	p := int(k.head)
	for j := int32(0); j < k.n; j++ {
		if ok(p) {
			return p, true
		}
		p = int(c.next[p-c.off])
	}
	return 0, false
}

// remove unlinks pos from the key's chain, keeping the rest in order.
func (c *chains) remove(h uint64, pos int, eq func(pos int) bool) {
	i := c.find(h, eq)
	if i < 0 {
		return
	}
	k := &c.keys[i]
	p := int32(pos)
	if k.n == 0 {
		return
	}
	if k.head == p {
		if k.n--; k.n > 0 {
			k.head = c.next[pos-c.off]
		}
		return
	}
	prev := k.head
	for j := int32(1); j < k.n; j++ {
		cur := c.next[int(prev)-c.off]
		if cur == p {
			c.next[int(prev)-c.off] = c.next[pos-c.off]
			if k.tail == p {
				k.tail = prev
			}
			k.n--
			return
		}
		prev = cur
	}
}

// relBook is one relation's bookkeeping: its tuples' chains and, aligned
// with the store's bindings for the relation (byRel), each constraint's
// pair chains.
type relBook struct {
	tuples chains
	pairs  []chains
}

func newRelBook(off, constraints int) *relBook {
	bk := &relBook{tuples: chains{off: off}, pairs: make([]chains, constraints)}
	for j := range bk.pairs {
		bk.pairs[j].off = off
	}
	return bk
}

// add records a new position holding t; at reads recorded positions.
func (bk *relBook) add(pos int, t value.Tuple, binds []acBinding, at func(int) value.Tuple) {
	bk.tuples.add(t.Hash(), pos, func(p int) bool { return at(p).Equal(t) })
	for j, b := range binds {
		bk.pairs[j].add(b.pairHash(t), pos, func(p int) bool { return b.samePair(at(p), t) })
	}
}

// remove forgets a dead position that held t.
func (bk *relBook) remove(pos int, t value.Tuple, binds []acBinding, at func(int) value.Tuple) {
	bk.tuples.remove(t.Hash(), pos, func(p int) bool { return at(p).Equal(t) })
	for j, b := range binds {
		bk.pairs[j].remove(b.pairHash(t), pos, func(p int) bool { return b.samePair(at(p), t) })
	}
}

// count returns the number of live positions holding t.
func (bk *relBook) count(t value.Tuple, at func(int) value.Tuple) int {
	i := bk.tuples.find(t.Hash(), func(p int) bool { return at(p).Equal(t) })
	if i < 0 {
		return 0
	}
	return int(bk.tuples.keys[i].n)
}

// book returns a relation's bookkeeping, building it on first use with
// one pass over snap's live tuples — and, with it, the group-size
// multiset of each of the relation's constraint cards. Called under mu
// with snap the current snapshot. Until a relation's book exists nothing
// has written to it since the base was sealed, so its constraints'
// groups are exactly the base index's.
func (st *Store) book(rel string, snap *Snapshot) *relBook {
	if bk := st.books[rel]; bk != nil {
		return bk
	}
	binds := st.byRel[rel]
	bk := newRelBook(0, len(binds))
	r := snap.rows(rel)
	bk.tuples.next = make([]int32, 0, r.len())
	for j := range bk.pairs {
		bk.pairs[j].next = make([]int32, 0, r.len())
	}
	snap.each(rel, func(pos int, t value.Tuple) bool {
		bk.add(pos, t, binds, r.at)
		return true
	})
	cards := *st.cards.Load()
	for _, b := range binds {
		sizes := make(map[int64]int64)
		if idx, ok := snap.base.AccessIndexFor(b.ac); ok {
			idx.Range(func(_ string, g []storage.IndexEntry) bool {
				sizes[int64(len(g))]++
				return true
			})
		}
		cards[b.key].sizeCount = sizes
	}
	st.books[rel] = bk
	return bk
}

// rows reads one relation's tuples by position at one epoch: the sealed
// base's, then the live additions.
type rows struct{ base, added []value.Tuple }

func (s *Snapshot) rows(rel string) rows {
	return rows{base: s.base.MustRelation(rel).Tuples, added: s.added[rel]}
}

// len is the number of positions ever allocated, dead ones included.
func (r rows) len() int { return len(r.base) + len(r.added) }

func (r rows) at(pos int) value.Tuple {
	if pos < len(r.base) {
		return r.base[pos]
	}
	return r.added[pos-len(r.base)]
}
