package live

import (
	"fmt"
	"time"

	"bcq/internal/storage"
	"bcq/internal/value"
)

// txn is the workspace of one Apply batch. It buffers every effect —
// copy-on-write index groups, new tuples, tombstones, pair-count deltas —
// against the basis snapshot, so an aborted batch leaves no trace and a
// committed one becomes exactly the next epoch's diff. It runs under the
// store's writer mutex.
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
	// delNew are the positions this batch tombstones, per relation.
	delNew map[string]map[int]bool
	// pairDelta adjusts pair multiplicities: acKey → pairKey → delta.
	pairDelta map[string]map[string]int
	// pairAdd records positions this batch appends to pair position
	// lists: acKey → pairKey → positions.
	pairAdd map[string]map[string][]int
	// cardDelta is the batch's net change in live distinct entries per
	// X-group: acKey → xKey → delta. +1 when a pair is born (first live
	// occurrence), −1 when it dies (last occurrence deleted); folded into
	// the store's cardinality cards on commit.
	cardDelta map[string]map[string]int64
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
		st:        st,
		snap:      snap,
		groups:    make(map[string]map[string][]storage.IndexEntry),
		addedNew:  make(map[string][]value.Tuple),
		delNew:    make(map[string]map[int]bool),
		pairDelta: make(map[string]map[string]int),
		pairAdd:   make(map[string]map[string][]int),
		cardDelta: make(map[string]map[string]int64),
	}
}

// bumpCard records a live-entry birth (+1) or death (−1) in one X-group.
func (tx *txn) bumpCard(acKey, xk string, delta int64) {
	m := tx.cardDelta[acKey]
	if m == nil {
		m = make(map[string]int64)
		tx.cardDelta[acKey] = m
	}
	m[xk] += delta
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

// pairCount is the pair's live multiplicity as of the batch's progress.
func (tx *txn) pairCount(acKey, pk string) int {
	n := 0
	if pe := tx.st.pairs[acKey][pk]; pe != nil {
		n = pe.count
	}
	return n + tx.pairDelta[acKey][pk]
}

// bumpPair adjusts a pair's batch-local multiplicity delta, recording the
// position for inserts (delta > 0).
func (tx *txn) bumpPair(acKey, pk string, delta, pos int) {
	dm := tx.pairDelta[acKey]
	if dm == nil {
		dm = make(map[string]int)
		tx.pairDelta[acKey] = dm
	}
	dm[pk] += delta
	if delta > 0 {
		am := tx.pairAdd[acKey]
		if am == nil {
			am = make(map[string][]int)
			tx.pairAdd[acKey] = am
		}
		am[pk] = append(am[pk], pos)
	}
}

// alive reports whether a position is live as of the batch's progress.
func (tx *txn) alive(rel string, pos int) bool {
	if tx.delNew[rel][pos] {
		return false
	}
	return !tx.snap.isDeleted(rel, pos)
}

// tupleAt reads a tuple by live position: base positions come from the
// basis snapshot's sealed base, added positions from the basis snapshot
// or from this batch's own inserts.
func (tx *txn) tupleAt(rel string, pos int) value.Tuple {
	base := tx.st.baseLen[rel]
	if pos < base {
		return tx.snap.base.MustRelation(rel).Tuples[pos]
	}
	i := pos - base
	prior := tx.snap.added[rel]
	if i < len(prior) {
		return prior[i]
	}
	return tx.addedNew[rel][i-len(prior)]
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

	// Validate: a constraint is at risk only when the tuple's (X, Y) pair
	// is new to its group — duplicates of a live pair never add a distinct
	// Y-value.
	for _, b := range binds {
		pk := pairKey(t, b.xPos, b.yPos)
		if tx.pairCount(b.key, pk) > 0 {
			continue
		}
		xk := value.KeyOf(t, b.xPos)
		if int64(len(tx.group(b.key, xk))+1) > b.ac.N {
			return &BoundError{AC: b.ac, XValue: t.Project(b.xPos), Tuple: t}
		}
	}

	// Apply.
	pos := tx.st.baseLen[op.Rel] + len(tx.snap.added[op.Rel]) + len(tx.addedNew[op.Rel])
	for _, b := range binds {
		pk := pairKey(t, b.xPos, b.yPos)
		if tx.pairCount(b.key, pk) == 0 {
			xk := value.KeyOf(t, b.xPos)
			g := tx.group(b.key, xk)
			ng := make([]storage.IndexEntry, len(g), len(g)+1)
			copy(ng, g)
			ng = append(ng, storage.IndexEntry{Y: t.Project(b.yPos), Witness: t, Pos: pos})
			tx.setGroup(b.key, xk, ng)
			tx.bumpCard(b.key, xk, 1)
		}
		tx.bumpPair(b.key, pk, +1, pos)
	}
	tx.addedNew[op.Rel] = append(tx.addedNew[op.Rel], t)
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
	pos, ok := tx.findLive(op.Rel, t)
	if !ok {
		return &NotFoundError{Rel: op.Rel, Tuple: t}
	}

	for _, b := range tx.st.byRel[op.Rel] {
		pk := pairKey(t, b.xPos, b.yPos)
		xk := value.KeyOf(t, b.xPos)
		yv := t.Project(b.yPos)
		yk := yv.Key()
		g := tx.group(b.key, xk)
		if tx.pairCount(b.key, pk) == 1 {
			// Last occurrence: drop the pair's entry from the group.
			ng := make([]storage.IndexEntry, 0, len(g)-1)
			for _, e := range g {
				if e.Y.Key() != yk {
					ng = append(ng, e)
				}
			}
			tx.setGroup(b.key, xk, ng)
			tx.bumpCard(b.key, xk, -1)
		} else if w, found := tx.firstLivePair(op.Rel, b.key, pk, pos); found {
			// The pair survives; if the deleted tuple was its witness,
			// re-witness to the first remaining live occurrence.
			for i, e := range g {
				if e.Y.Key() == yk && e.Pos == pos {
					ng := make([]storage.IndexEntry, len(g))
					copy(ng, g)
					ng[i] = storage.IndexEntry{Y: e.Y, Witness: tx.tupleAt(op.Rel, w), Pos: w}
					tx.setGroup(b.key, xk, ng)
					break
				}
			}
		}
		tx.bumpPair(b.key, pk, -1, 0)
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

// findLive locates the first live position holding an exactly-equal
// tuple, in live order (base positions, then insertion order).
func (tx *txn) findLive(rel string, t value.Tuple) (int, bool) {
	tk := t.Key()
	for _, pos := range tx.st.tupPos[rel][tk] {
		if tx.alive(rel, pos) {
			return pos, true
		}
	}
	// Positions inserted by this very batch are not in tupPos yet.
	base := tx.st.baseLen[rel] + len(tx.snap.added[rel])
	for i, nt := range tx.addedNew[rel] {
		if nt.Key() == tk && tx.alive(rel, base+i) {
			return base + i, true
		}
	}
	return 0, false
}

// firstLivePair finds the first live position of a pair other than the
// one being deleted, scanning the committed position list then this
// batch's appends — both in live order.
func (tx *txn) firstLivePair(rel, acKey, pk string, deleting int) (int, bool) {
	if pe := tx.st.pairs[acKey][pk]; pe != nil {
		for _, pos := range pe.positions {
			if pos != deleting && tx.alive(rel, pos) {
				return pos, true
			}
		}
	}
	for _, pos := range tx.pairAdd[acKey][pk] {
		if pos != deleting && tx.alive(rel, pos) {
			return pos, true
		}
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
		// Fold the cardinality deltas into the shape cards. Each X-group's
		// net delta is applied once, so the maintained groups/entries/max
		// counters stay equal to a from-scratch recount of the live data.
		cards := *st.cards.Load()
		for acKey, dm := range tx.cardDelta {
			card := cards[acKey]
			for xk, delta := range dm {
				card.bump(xk, delta)
			}
		}
		// Fold pair deltas and position appends into the writer state.
		for acKey, dm := range tx.pairDelta {
			pairs := st.pairs[acKey]
			for pk, delta := range dm {
				pe := pairs[pk]
				if pe == nil {
					pe = &pairEntry{}
					pairs[pk] = pe
				}
				pe.count += delta
				pe.positions = append(pe.positions, tx.pairAdd[acKey][pk]...)
				if pe.count <= 0 {
					delete(pairs, pk)
				}
			}
		}
		for rel, ts := range tx.addedNew {
			base := st.baseLen[rel] + len(tx.snap.added[rel])
			pos := st.tupPos[rel]
			for i, t := range ts {
				k := t.Key()
				pos[k] = append(pos[k], base+i)
			}
		}
		// Prune the deleted positions out of the position bookkeeping, so
		// insert/delete churn cannot grow it (or the delete-path scans
		// over it) without bound. The prune preserves list order: the
		// surviving positions must stay in live order for witness picks.
		for rel, dm := range tx.delNew {
			for pos := range dm {
				t := tx.tupleAt(rel, pos)
				tk := t.Key()
				if rest := removePos(st.tupPos[rel][tk], pos); len(rest) == 0 {
					delete(st.tupPos[rel], tk)
				} else {
					st.tupPos[rel][tk] = rest
				}
				for _, b := range st.byRel[rel] {
					if pe := st.pairs[b.key][pairKey(t, b.xPos, b.yPos)]; pe != nil {
						pe.positions = removePos(pe.positions, pos)
					}
				}
			}
		}

		next := tx.snapshot()
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

// removePos removes one occurrence of pos from the list, preserving
// order; the backing array is writer-owned, never shared with snapshots.
func removePos(list []int, pos int) []int {
	for i, p := range list {
		if p == pos {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
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
