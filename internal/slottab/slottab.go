// Package slottab is the open-addressing hash index shared by the
// executor's sets and the live store's writer bookkeeping. A Table maps
// 64-bit hashes to the dense indices of elements its caller stores in
// insertion order; it never stores or compares keys itself. Every probe
// passes an equality callback that confirms a hash match against the
// caller's element, so a collision costs one comparison but can never
// merge two distinct keys, and nothing the caller exposes iterates in
// hash order.
//
// A Table holds only integers: the collector never scans its contents,
// however large it grows. Elements cannot be removed; callers that retire
// a key keep its element (the live store marks it empty) and reuse it
// when the key returns.
package slottab

// Table is an open-addressing (linear probing) index over the elements
// of an insertion-ordered store: slots hold 1 + an element's index, and
// hashes keeps each element's hash so growth never rehashes values. The
// table starts empty and grows by doubling at a 3/4 load factor, so a
// set that sees a handful of elements costs a handful of words. Element
// indices must stay below 2^31.
type Table struct {
	slots  []int32  // 1 + element index; 0 marks an empty slot
	hashes []uint64 // hashes[i] is element i's hash
}

// Len returns the number of elements indexed.
func (t *Table) Len() int { return len(t.hashes) }

// Find returns the index of the element with hash h for which eq holds,
// or -1 when there is none. It never grows the table.
func (t *Table) Find(h uint64, eq func(i int) bool) int {
	if len(t.slots) == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for p := int(h) & mask; ; p = (p + 1) & mask {
		e := t.slots[p]
		if e == 0 {
			return -1
		}
		if t.hashes[e-1] == h && eq(int(e-1)) {
			return int(e - 1)
		}
	}
}

// Insert returns the index of the element with hash h for which eq
// holds, with found set; when there is none it indexes a new element
// under h and returns its index, Len() before the call — the caller must
// append that element to its store before the next probe. eq is never
// called with the new element's index.
func (t *Table) Insert(h uint64, eq func(i int) bool) (i int, found bool) {
	if 4*(len(t.hashes)+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for p := int(h) & mask; ; p = (p + 1) & mask {
		e := t.slots[p]
		if e == 0 {
			t.hashes = append(t.hashes, h)
			t.slots[p] = int32(len(t.hashes))
			return len(t.hashes) - 1, false
		}
		if t.hashes[e-1] == h && eq(int(e-1)) {
			return int(e - 1), true
		}
	}
}

func (t *Table) grow() {
	n := 2 * len(t.slots)
	if n < 8 {
		n = 8
	}
	t.slots = make([]int32, n)
	mask := n - 1
	for i, h := range t.hashes {
		p := int(h) & mask
		for t.slots[p] != 0 {
			p = (p + 1) & mask
		}
		t.slots[p] = int32(i + 1)
	}
}
