package live

import (
	"fmt"
	"time"

	"bcq/internal/storage"
	"bcq/internal/value"
)

// txn is the workspace of one Apply batch. It buffers every effect —
// copy-on-write index groups, new tuples, tombstones — against the basis
// snapshot, so an aborted batch leaves no trace and a committed one
// becomes exactly the next epoch's diff. The store's writer bookkeeping
// changes only on commit. It runs under the store's writer mutex.
type txn struct {
	st   *Store
	snap *Snapshot

	// groups are the X-groups this batch rewrote: acKey → xKey → the full
	// merged entry group as the new epoch will serve it. A group is copied
	// from the basis (or base index) on first touch.
	groups map[string]map[string][]storage.IndexEntry
	// addedNew are the tuples this batch inserts, per relation, in order;
	// their positions follow the basis snapshot's added tuples.
	addedNew map[string][]value.Tuple
	// pend is per relation the bookkeeping of this batch's own inserts,
	// over their positions only; lookups consult the store's first.
	pend map[string]*relBook
	// delNew are the positions this batch tombstones, per relation.
	delNew map[string]map[int]bool
	// quarantined collects Permissive-mode refusals, merged on commit.
	quarantined []Quarantined
	// applied records the ops that took effect, in order — the WAL logs
	// exactly these (never quarantined ones), so replaying them through
	// Apply is deterministic and never re-rejects.
	applied []Op
	// nApplied counts ops that took effect.
	nApplied int64
}

func newTxn(st *Store, snap *Snapshot) *txn {
	return &txn{
		st:       st,
		snap:     snap,
		groups:   make(map[string]map[string][]storage.IndexEntry),
		addedNew: make(map[string][]value.Tuple),
		pend:     make(map[string]*relBook),
		delNew:   make(map[string]map[int]bool),
	}
}

// group returns the batch's working copy of one X-group, materializing it
// from the basis snapshot (which falls through to the base index) on
// first touch.
func (tx *txn) group(acKey, xk string) []storage.IndexEntry {
	m := tx.groups[acKey]
	if m != nil {
		if g, ok := m[xk]; ok {
			return g
		}
	}
	return tx.snap.lookupGroup(acKey, []byte(xk))
}

// setGroup installs the batch's rewritten group. An emptied group is kept
// as a non-nil empty slice so snapshot lookups see the emptiness instead
// of falling through to the base.
func (tx *txn) setGroup(acKey, xk string, g []storage.IndexEntry) {
	m := tx.groups[acKey]
	if m == nil {
		m = make(map[string][]storage.IndexEntry)
		tx.groups[acKey] = m
	}
	if g == nil {
		g = []storage.IndexEntry{}
	}
	m[xk] = g
}

// tupleAt reads a tuple by live position: basis positions come from the
// basis snapshot, later ones from this batch's own inserts.
func (tx *txn) tupleAt(rel string, pos int) value.Tuple {
	r := tx.snap.rows(rel)
	if pos < r.len() {
		return r.at(pos)
	}
	return tx.addedNew[rel][pos-r.len()]
}

// checkStructure validates the caller-bug class of errors: the relation
// must exist and the tuple must match its arity.
func (tx *txn) checkStructure(op Op) error {
	rs, ok := tx.st.cat.Relation(op.Rel)
	if !ok {
		return fmt.Errorf("live: unknown relation %s", op.Rel)
	}
	if len(op.Tuple) != rs.Arity() {
		return fmt.Errorf("live: relation %s expects arity %d, got %d", op.Rel, rs.Arity(), len(op.Tuple))
	}
	return nil
}

// insert validates one insert against every constraint on its relation,
// then applies it to the workspace. Validation is complete before any
// mutation, so a rejected op leaves the workspace untouched (which is
// what lets Permissive mode skip it and keep going).
func (tx *txn) insert(op Op) error {
	if err := tx.checkStructure(op); err != nil {
		return err
	}
	t := op.Tuple
	binds := tx.st.byRel[op.Rel]
	tx.st.book(op.Rel, tx.snap)

	// Validate: a constraint is at risk only when the tuple's (X, Y) pair
	// is new to its group — duplicates of a live pair never add a distinct
	// Y-value.
	for j, b := range binds {
		if _, live := tx.livePair(op.Rel, j, t, -1); live {
			continue
		}
		xk := value.KeyOf(t, b.xPos)
		if int64(len(tx.group(b.key, xk))+1) > b.ac.N {
			return &BoundError{AC: b.ac, XValue: t.Project(b.xPos), Tuple: t}
		}
	}

	// Apply.
	pos := tx.snap.rows(op.Rel).len() + len(tx.addedNew[op.Rel])
	for j, b := range binds {
		if _, live := tx.livePair(op.Rel, j, t, -1); live {
			continue
		}
		xk := value.KeyOf(t, b.xPos)
		g := tx.group(b.key, xk)
		ng := make([]storage.IndexEntry, len(g), len(g)+1)
		copy(ng, g)
		ng = append(ng, storage.IndexEntry{Y: t.Project(b.yPos), Witness: t, Pos: pos})
		tx.setGroup(b.key, xk, ng)
	}
	tx.addedNew[op.Rel] = append(tx.addedNew[op.Rel], t)
	pend := tx.pend[op.Rel]
	if pend == nil {
		pend = newRelBook(pos, len(binds))
		tx.pend[op.Rel] = pend
	}
	pend.add(pos, t, binds, func(p int) value.Tuple { return tx.tupleAt(op.Rel, p) })
	tx.applied = append(tx.applied, op)
	tx.nApplied++
	return nil
}

// delete removes one live occurrence of an exactly-equal tuple,
// maintaining every affected index group: a pair whose last occurrence
// goes away loses its entry; a pair that survives but loses its witness
// is re-witnessed to its first remaining live occurrence — the same
// choice a from-scratch index build over the surviving data would make,
// which keeps live groups structurally identical to Freeze'd ones.
func (tx *txn) delete(op Op) error {
	if err := tx.checkStructure(op); err != nil {
		return err
	}
	t := op.Tuple
	tx.st.book(op.Rel, tx.snap)
	pos, ok := tx.findLive(op.Rel, t)
	if !ok {
		return &NotFoundError{Rel: op.Rel, Tuple: t}
	}

	for j, b := range tx.st.byRel[op.Rel] {
		xk := value.KeyOf(t, b.xPos)
		g := tx.group(b.key, xk)
		w, survives := tx.livePair(op.Rel, j, t, pos)
		if !survives {
			// Last occurrence: drop the pair's entry from the group.
			ng := make([]storage.IndexEntry, 0, len(g)-1)
			for _, e := range g {
				if !sameY(e.Y, t, b.yPos) {
					ng = append(ng, e)
				}
			}
			tx.setGroup(b.key, xk, ng)
			continue
		}
		// The pair survives; if the deleted tuple was its witness,
		// re-witness to the first remaining live occurrence.
		for i, e := range g {
			if e.Pos == pos && sameY(e.Y, t, b.yPos) {
				ng := make([]storage.IndexEntry, len(g))
				copy(ng, g)
				ng[i] = storage.IndexEntry{Y: e.Y, Witness: tx.tupleAt(op.Rel, w), Pos: w}
				tx.setGroup(b.key, xk, ng)
				break
			}
		}
	}

	m := tx.delNew[op.Rel]
	if m == nil {
		m = make(map[int]bool)
		tx.delNew[op.Rel] = m
	}
	m[pos] = true
	tx.applied = append(tx.applied, op)
	tx.nApplied++
	return nil
}

// sameY reports whether an entry's Y-value equals t's values at yPos.
func sameY(y, t value.Tuple, yPos []int) bool {
	for i, p := range yPos {
		if y[i] != t[p] {
			return false
		}
	}
	return true
}

// findLive locates the first live position holding an exactly-equal
// tuple, in live order (basis positions, then this batch's inserts).
func (tx *txn) findLive(rel string, t value.Tuple) (int, bool) {
	h := t.Hash()
	eq := func(p int) bool { return tx.tupleAt(rel, p).Equal(t) }
	alive := func(p int) bool { return !tx.delNew[rel][p] }
	if pos, ok := tx.st.books[rel].tuples.first(h, eq, alive); ok {
		return pos, true
	}
	if pend := tx.pend[rel]; pend != nil {
		return pend.tuples.first(h, eq, alive)
	}
	return 0, false
}

// livePair finds the first live position other than skip carrying t's
// (X, Y) pair of the relation's j-th constraint, in live order. The
// store's chains hold exactly the positions live at the basis, so only
// this batch's tombstones can kill one of theirs.
func (tx *txn) livePair(rel string, j int, t value.Tuple, skip int) (int, bool) {
	b := tx.st.byRel[rel][j]
	h := b.pairHash(t)
	eq := func(p int) bool { return b.samePair(tx.tupleAt(rel, p), t) }
	alive := func(p int) bool { return p != skip && !tx.delNew[rel][p] }
	if pos, ok := tx.st.books[rel].pairs[j].first(h, eq, alive); ok {
		return pos, true
	}
	if pend := tx.pend[rel]; pend != nil {
		return pend.pairs[j].first(h, eq, alive)
	}
	return 0, false
}

// maxChainDepth bounds how many epoch diffs a snapshot lookup may walk
// before hitting the base; commits past it flatten the chain into one
// diff, keeping read cost independent of write history.
const maxChainDepth = 16

// commit folds the workspace into the writer state and publishes the next
// epoch. Called under the store's mutex. A batch with no effective ops
// (everything quarantined, or empty) publishes nothing — quarantined ops
// are then stamped with the unchanged current epoch.
func (st *Store) commit(tx *txn) uint64 {
	published := tx.snap.epoch
	if tx.nApplied > 0 {
		next := tx.snapshot()
		// Fold the rewritten groups' size changes into the shape cards, so
		// the maintained groups/entries/max counters stay equal to a
		// from-scratch recount of the live data.
		cards := *st.cards.Load()
		for acKey, gm := range tx.groups {
			card := cards[acKey]
			for xk, g := range gm {
				card.move(int64(len(tx.snap.lookupGroup(acKey, []byte(xk)))), int64(len(g)))
			}
		}
		// Record the inserted positions in live order, then forget the
		// deleted ones, so the chains hold exactly the next epoch's live
		// positions: insert/delete churn cannot grow them (or the
		// delete-path walks over them) without bound.
		for rel, ts := range tx.addedNew {
			r := next.rows(rel)
			bk, binds := st.books[rel], st.byRel[rel]
			for i, t := range ts {
				bk.add(r.len()-len(ts)+i, t, binds, r.at)
			}
		}
		for rel, dm := range tx.delNew {
			r := next.rows(rel)
			bk, binds := st.books[rel], st.byRel[rel]
			for pos := range dm {
				bk.remove(pos, r.at(pos), binds, r.at)
			}
		}

		st.applied.Add(tx.nApplied)
		st.cur.Store(next)
		st.lastCommit.Store(time.Now().UnixNano())
		published = next.epoch
	}

	if len(tx.quarantined) > 0 {
		for i := range tx.quarantined {
			tx.quarantined[i].Epoch = published
		}
		st.quarantine = append(st.quarantine, tx.quarantined...)
		st.quarantined.Add(int64(len(tx.quarantined)))
	}
	return published
}

// snapshot builds the next epoch from the workspace: cumulative added /
// deleted / size views plus this batch's group diff, chained on the basis
// or flattened when the chain is deep.
func (tx *txn) snapshot() *Snapshot {
	snap, st := tx.snap, tx.st
	next := &Snapshot{
		st:        st,
		base:      snap.base,
		epoch:     snap.epoch + 1,
		numTuples: snap.numTuples,
		binds:     snap.binds,
		acc:       snap.acc,
	}

	// added: copy the per-relation map, extending touched relations. The
	// slices share backing across epochs; older snapshots read only their
	// own shorter prefix, so appends never affect them.
	next.added = make(map[string][]value.Tuple, len(snap.added)+len(tx.addedNew))
	for rel, ts := range snap.added {
		next.added[rel] = ts
	}
	for rel, ts := range tx.addedNew {
		next.added[rel] = append(next.added[rel], ts...)
	}

	// size: always a small map (one entry per relation).
	next.size = make(map[string]int64, len(snap.size))
	for rel, n := range snap.size {
		next.size[rel] = n
	}
	for rel, ts := range tx.addedNew {
		next.size[rel] += int64(len(ts))
		next.numTuples += int64(len(ts))
	}
	for rel, dm := range tx.delNew {
		next.size[rel] -= int64(len(dm))
		next.numTuples -= int64(len(dm))
	}

	if snap.depth+1 > maxChainDepth {
		next.groups, next.delDiff = flattenDiffs(snap, tx.groups, tx.delNew)
		st.flattens.Add(1)
	} else {
		next.groups = tx.groups
		next.delDiff = tx.delNew
		next.parent = snap
		next.depth = snap.depth + 1
	}
	return next
}

// flattenDiffs merges the whole ancestor chain's group and tombstone
// diffs with the committing batch's into single diffs (for groups, the
// youngest writer of each group wins), so the new snapshot reads in one
// hop.
func flattenDiffs(snap *Snapshot, topGroups map[string]map[string][]storage.IndexEntry, topDels map[string]map[int]bool) (map[string]map[string][]storage.IndexEntry, map[string]map[int]bool) {
	var chain []*Snapshot
	for s := snap; s != nil; s = s.parent {
		chain = append(chain, s)
	}
	flatG := make(map[string]map[string][]storage.IndexEntry)
	flatD := make(map[string]map[int]bool)
	mergeG := func(diff map[string]map[string][]storage.IndexEntry) {
		for acKey, m := range diff {
			fm := flatG[acKey]
			if fm == nil {
				fm = make(map[string][]storage.IndexEntry, len(m))
				flatG[acKey] = fm
			}
			for xk, g := range m {
				fm[xk] = g
			}
		}
	}
	mergeD := func(diff map[string]map[int]bool) {
		for rel, m := range diff {
			fm := flatD[rel]
			if fm == nil {
				fm = make(map[int]bool, len(m))
				flatD[rel] = fm
			}
			for p := range m {
				fm[p] = true
			}
		}
	}
	for i := len(chain) - 1; i >= 0; i-- { // oldest first
		mergeG(chain[i].groups)
		mergeD(chain[i].delDiff)
	}
	mergeG(topGroups)
	mergeD(topDels)
	return flatG, flatD
}
