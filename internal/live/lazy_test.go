package live

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"bcq/internal/schema"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// friendsGraph builds a sealed friends graph: each of users users has
// friends distinct friends drawn from a seeded generator.
func friendsGraph(t testing.TB, users, friends int) (*storage.Database, *schema.AccessSchema) {
	t.Helper()
	cat := schema.MustCatalog(schema.MustRelation("friends", "user_id", "friend_id"))
	acc := schema.MustAccessSchema(
		schema.MustAccessConstraint("friends", []string{"user_id"}, []string{"friend_id"}, int64(friends)))
	db := storage.NewDatabase(cat)
	rng := rand.New(rand.NewSource(1))
	mine := make(map[int]bool, friends)
	for u := 0; u < users; u++ {
		clear(mine)
		for len(mine) < friends {
			f := rng.Intn(users)
			if f == u || mine[f] {
				continue
			}
			mine[f] = true
			if err := db.Insert("friends", value.Tuple{value.Int(int64(u)), value.Int(int64(f))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.BuildIndexes(acc); err != nil {
		t.Fatal(err)
	}
	return db, acc
}

// newAllocBytes returns the fewest bytes one of a few live.New calls over
// db allocated.
func newAllocBytes(t *testing.T, db *storage.Database, acc *schema.AccessSchema) uint64 {
	t.Helper()
	best := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		st, err := New(db, acc, Options{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(st)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestReadOnlyStoreAllocatesNoWriterState holds opening a store over a
// sealed base to O(relations + constraints) memory: the bytes New
// allocates must not grow when the data grows 4×. The writer bookkeeping
// is built on a relation's first write, so a store that is only read
// never holds per-tuple state beyond the base and its indexes — the
// paper's flat-as-|D|-grows property, applied to opening a store.
func TestReadOnlyStoreAllocatesNoWriterState(t *testing.T) {
	smallDB, smallAcc := friendsGraph(t, 500, 8)
	bigDB, bigAcc := friendsGraph(t, 2000, 8)
	small := newAllocBytes(t, smallDB, smallAcc)
	big := newAllocBytes(t, bigDB, bigAcc)
	t.Logf("New allocates %d B over %d tuples, %d B over %d tuples", small, smallDB.NumTuples(), big, bigDB.NumTuples())
	if big > small+1024 {
		t.Fatalf("New allocates %d B over %d tuples but %d B over %d: opening a store grows with |D|",
			small, smallDB.NumTuples(), big, bigDB.NumTuples())
	}
}

// checkLazyState requires everything the writer bookkeeping feeds to
// equal a from-scratch rebuild of the current snapshot (Freeze): every
// index group's Y-values with their witness tuples and witness positions
// (live positions mapped to the frozen ones through live order), the
// LiveCount of every tuple in probe, and CardStats. In-group order is
// not compared: a live group keeps its entries in the order their pairs
// were born, and a re-witnessed entry keeps its place, while a rebuild
// orders entries by their witnesses' positions.
func checkLazyState(t *testing.T, st *Store, probe map[string][]value.Tuple, stage string) {
	t.Helper()
	snap := st.Snapshot()
	frozen, err := snap.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range st.Catalog().Relations() {
		rel := rs.Name()
		rank := make(map[int]int)
		if err := snap.each(rel, func(pos int, _ value.Tuple) bool {
			rank[pos] = len(rank)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for _, ac := range snap.Access().Constraints() {
			if ac.Rel != rel {
				continue
			}
			idx, _ := frozen.AccessIndexFor(ac)
			// Every group either side serves: the frozen index's, the
			// base index's and every overlay's.
			keys := make(map[string]bool)
			idx.Range(func(xk string, _ []storage.IndexEntry) bool { keys[xk] = true; return true })
			if bi, ok := snap.base.AccessIndexFor(ac); ok {
				bi.Range(func(xk string, _ []storage.IndexEntry) bool { keys[xk] = true; return true })
			}
			for cur := snap; cur != nil; cur = cur.parent {
				for xk := range cur.groups[ac.Key()] {
					keys[xk] = true
				}
			}
			for xk := range keys {
				got, want := snap.lookupGroup(ac.Key(), []byte(xk)), idx.Entries([]byte(xk))
				if len(got) != len(want) {
					t.Fatalf("%s: %s group %q has %d entries, want %d", stage, ac, xk, len(got), len(want))
				}
				for _, g := range got {
					i := slices.IndexFunc(want, func(w storage.IndexEntry) bool { return w.Y.Equal(g.Y) })
					if i < 0 {
						t.Fatalf("%s: %s group %q serves Y-value %s, which a rebuild lacks", stage, ac, xk, g.Y)
					}
					if w := want[i]; !g.Witness.Equal(w.Witness) || rank[g.Pos] != w.Pos {
						t.Fatalf("%s: %s group %q witnesses %s by %s @%d (→ %d), want %s @%d",
							stage, ac, xk, g.Y, g.Witness, g.Pos, rank[g.Pos], w.Witness, w.Pos)
					}
				}
			}
		}
		want := make(map[string]int)
		for _, tu := range frozen.MustRelation(rel).Tuples {
			want[tu.Key()]++
		}
		for _, tu := range append(frozen.MustRelation(rel).Tuples, probe[rel]...) {
			if got := st.LiveCount(rel, tu); got != want[tu.Key()] {
				t.Fatalf("%s: LiveCount(%s, %s) = %d, want %d", stage, rel, tu, got, want[tu.Key()])
			}
		}
	}
	checkCards(t, st, stage)
}

// socialChurn is a seeded op stream over the social scene: inserts and
// deletes over small value pools, so duplicates, witness deletes,
// last-occurrence deletes and bound violations all occur. It returns
// the batches and every tuple they name, per relation.
func socialChurn(seed int64, batches int) ([][]Op, map[string][]value.Tuple) {
	rng := rand.New(rand.NewSource(seed))
	pick := func(pool ...string) value.Value { return value.Str(pool[rng.Intn(len(pool))]) }
	named := make(map[string][]value.Tuple)
	var out [][]Op
	for i := 0; i < batches; i++ {
		var ops []Op
		for k := 0; k < 6; k++ {
			var rel string
			var tu value.Tuple
			switch rng.Intn(3) {
			case 0:
				rel, tu = "in_album", value.Tuple{pick("p1", "p2", "p3", "p4", "p9"), pick("a0", "a1", "a2")}
			case 1:
				rel, tu = "friends", value.Tuple{pick("u0", "u1", "u2"), pick("f1", "f2", "f7", "f9")}
			default:
				rel, tu = "tagging", value.Tuple{pick("p1", "p2", "p3"), pick("f1", "f2", "s9"), pick("u0", "u1")}
			}
			named[rel] = append(named[rel], tu)
			if rng.Intn(2) == 0 {
				ops = append(ops, Insert(rel, tu))
			} else {
				ops = append(ops, Delete(rel, tu))
			}
		}
		out = append(out, ops)
	}
	return out, named
}

// churnAndCheck applies the seeded batches, checking the state against a
// rebuild after each.
func churnAndCheck(t *testing.T, st *Store, seed int64, batches int, stage string) {
	t.Helper()
	ops, named := socialChurn(seed, batches)
	for i, b := range ops {
		if _, err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
		checkLazyState(t, st, named, fmt.Sprintf("%s batch %d", stage, i))
	}
}

// TestLazyBookkeepingMatchesRebuild drives a seeded insert/delete stream
// from every path that leaves relations without writer bookkeeping — a
// fresh store, a compacted one, a durable store recovered by WAL replay,
// and a schema extension on a relation never written — and requires
// groups, witnesses, LiveCount and CardStats to equal a Freeze rebuild
// after every batch.
func TestLazyBookkeepingMatchesRebuild(t *testing.T) {
	t.Run("fresh", func(t *testing.T) {
		st := liveSocial(t, Options{Mode: Permissive})
		checkCards(t, st, "never written")
		churnAndCheck(t, st, 1, 30, "fresh")
	})
	t.Run("compact", func(t *testing.T) {
		st := liveSocial(t, Options{Mode: Permissive})
		ops, _ := socialChurn(2, 10)
		for _, b := range ops {
			if _, err := st.Apply(b); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		checkCards(t, st, "compacted, not written since")
		churnAndCheck(t, st, 3, 30, "compact")
	})
	t.Run("open-replay", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "store")
		st, err := New(loadSocial(t), accessA0(), Options{Mode: Permissive, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ops, named := socialChurn(4, 10)
		for _, b := range ops {
			if _, err := st.Apply(b); err != nil {
				t.Fatal(err)
			}
		}
		// Crash: abandon the store without Close, so Open replays the WAL.
		re, rec, err := Open(dir, socialCatalog(), nil, Options{Mode: Permissive})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if rec.ReplayedOps == 0 {
			t.Fatal("recovery replayed nothing")
		}
		checkLazyState(t, re, named, "replayed")
		churnAndCheck(t, re, 5, 20, "open-replay")
	})
	t.Run("extend-unwritten", func(t *testing.T) {
		st := liveSocial(t, Options{Mode: Permissive})
		// tagging has not been written: the extension builds its
		// bookkeeping for the existing constraint and adds the new one.
		if err := st.ExtendAccess(taggingByTagger(100)); err != nil {
			t.Fatal(err)
		}
		checkCards(t, st, "extended")
		churnAndCheck(t, st, 6, 30, "extend-unwritten")
	})
	t.Run("extend-after-writes", func(t *testing.T) {
		st := liveSocial(t, Options{Mode: Permissive})
		ops, _ := socialChurn(7, 10)
		for _, b := range ops {
			if _, err := st.Apply(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.ExtendAccess(taggingByTagger(100)); err != nil {
			t.Fatal(err)
		}
		churnAndCheck(t, st, 8, 30, "extend-after-writes")
	})
	t.Run("livecount-first", func(t *testing.T) {
		st := liveSocial(t, Options{Mode: Permissive})
		// LiveCount on an unbuilt relation builds it; a delete then runs
		// against that build.
		if n := st.LiveCount("friends", strs("u0", "f1")); n != 1 {
			t.Fatalf("LiveCount = %d, want 1", n)
		}
		if n := st.LiveCount("nope", strs("u0", "f1")); n != 0 {
			t.Fatalf("LiveCount of an unknown relation = %d, want 0", n)
		}
		if err := st.Delete("friends", strs("u0", "f1")); err != nil {
			t.Fatal(err)
		}
		churnAndCheck(t, st, 9, 20, "livecount-first")
	})
}

// TestCardStatsDuringFirstBuild reads CardStats concurrently with the
// writes that build a large relation's bookkeeping (run it under -race):
// readers never take the writer mutex and must not race the build, and
// the statistics must equal a recount afterwards.
func TestCardStatsDuringFirstBuild(t *testing.T) {
	db, acc := friendsGraph(t, 2000, 8)
	st, err := New(db, acc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				cs := st.CardStats()
				if cs.ACs[acc.Constraints()[0].Key()].MaxGroup > 8 {
					t.Error("CardStats reported a group past its bound")
					return
				}
				reads.Add(1)
			}
		}()
	}
	for u := 0; u < 4; u++ {
		// The first write builds; the deletes re-witness and shrink groups.
		victim := db.MustRelation("friends").Tuples[u*8]
		if err := st.Delete("friends", victim); err != nil {
			t.Fatal(err)
		}
		if err := st.Insert("friends", value.Tuple{value.Int(int64(u)), value.Int(-1)}); err != nil {
			t.Fatal(err)
		}
	}
	for reads.Load() == 0 {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	checkCards(t, st, "after first build")
}
