package shard_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"bcq/internal/live"
	"bcq/internal/schema"
	"bcq/internal/shard"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// TestRoundRobinDeleteRoutingProperty is the audit of occurrence-routed
// deletes for constraint-less relations: random batches interleaving
// round-robin inserts with deletes of the same (heavily colliding)
// tuples — plus partitioned-relation traffic in the same batch — must
// leave the sharded store with exactly the live tuple multiset a single
// live store reaches processing the identical batches, in both Strict
// and Permissive modes, including batches that fail.
//
// The in-batch invariants under test: a delete prefers committed
// occurrences (counted per shard, so two deletes never chase one
// occurrence), falls back to this batch's own earlier inserts (FIFO, so
// the delete lands behind its insert on one shard), and a Strict-mode
// routing miss aborts before any sub-batch dispatches.
func TestRoundRobinDeleteRoutingProperty(t *testing.T) {
	cat, err := schema.NewCatalog(
		mustRel(t, "part", "k", "v"),
		mustRel(t, "free", "f", "g"),
	)
	if err != nil {
		t.Fatal(err)
	}
	acc := schema.MustAccessSchema(schema.MustAccessConstraint("part", []string{"k"}, []string{"v"}, 1000))

	for _, mode := range []live.Mode{live.Strict, live.Permissive} {
		for _, shards := range []int{2, 3, 5} {
			t.Run(fmt.Sprintf("%s/P=%d", mode, shards), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(42 + shards)))
				ss, err := shard.New(storage.NewDatabase(cat), acc, shard.Options{Shards: shards, Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				ls, err := live.New(storage.NewDatabase(cat), acc, live.Options{Mode: mode})
				if err != nil {
					t.Fatal(err)
				}

				// A tiny tuple pool maximizes same-tuple collisions, the
				// regime where occurrence routing can drift.
				pool := make([]value.Tuple, 5)
				for i := range pool {
					pool[i] = value.Tuple{str(fmt.Sprintf("f%d", i)), str("g")}
				}
				partSeq := 0

				for batch := 0; batch < 400; batch++ {
					n := 1 + rng.Intn(7)
					ops := make([]live.Op, 0, n)
					for i := 0; i < n; i++ {
						switch rng.Intn(10) {
						case 0, 1, 2, 3:
							ops = append(ops, live.Insert("free", pool[rng.Intn(len(pool))]))
						case 4, 5, 6, 7:
							ops = append(ops, live.Delete("free", pool[rng.Intn(len(pool))]))
						default:
							// Partitioned traffic sharing the batch; unique keys, so
							// it never fails and never tears a Strict batch.
							partSeq++
							ops = append(ops, live.Insert("part", value.Tuple{str(fmt.Sprintf("k%d", partSeq)), str("v")}))
						}
					}

					errS := ss.Apply(ops)
					_, errL := ls.Apply(ops)
					if (errS == nil) != (errL == nil) {
						t.Fatalf("batch %d (%v): sharded err %v, single err %v", batch, ops, errS, errL)
					}
					if errS != nil && !errors.Is(errS, live.ErrNoSuchTuple) {
						t.Fatalf("batch %d: unexpected failure class %v", batch, errS)
					}

					for _, rel := range []string{"free", "part"} {
						got := sortedTuples(t, relTuples(t, ss, rel))
						want := sortedTuples(t, snapTuples(t, ls, rel))
						if got != want {
							t.Fatalf("batch %d: %s diverged\n sharded: %s\n single:  %s\n ops: %v",
								batch, rel, got, want, ops)
						}
					}
					if gq, lq := len(ss.Quarantine()), len(ls.Quarantine()); gq != lq {
						t.Fatalf("batch %d: quarantine sizes diverged (sharded %d, single %d)", batch, gq, lq)
					}
				}
				if ss.NumTuples() == 0 {
					t.Error("property run never left live tuples behind (workload too weak)")
				}
			})
		}
	}
}

func relTuples(t *testing.T, ss *shard.Store, rel string) []value.Tuple {
	t.Helper()
	ts, err := ss.View().Tuples(rel)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func snapTuples(t *testing.T, ls *live.Store, rel string) []value.Tuple {
	t.Helper()
	ts, err := ls.Snapshot().Tuples(rel)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// sortedTuples renders a multiset of tuples order-independently.
func sortedTuples(t *testing.T, ts []value.Tuple) string {
	t.Helper()
	keys := make([]string, len(ts))
	for i, tu := range ts {
		keys[i] = tu.String()
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

// TestDeleteRoutingBuildsUnwrittenRelations starts from a base whose
// constraint-less relation already holds (duplicate) tuples on every
// shard, so the first deletes are routed through LiveCount on shards
// whose relation bookkeeping has not been built yet. The sharded store
// must track a single live store fed the same batches: same live tuple
// multiset, per-tuple counts that sum to the single store's LiveCount,
// and cardinality statistics equal to a recount.
func TestDeleteRoutingBuildsUnwrittenRelations(t *testing.T) {
	cat, err := schema.NewCatalog(
		mustRel(t, "part", "k", "v"),
		mustRel(t, "free", "f", "g"),
	)
	if err != nil {
		t.Fatal(err)
	}
	acc := schema.MustAccessSchema(schema.MustAccessConstraint("part", []string{"k"}, []string{"v"}, 1000))
	pool := make([]value.Tuple, 4)
	for i := range pool {
		pool[i] = value.Tuple{str(fmt.Sprintf("f%d", i)), str("g")}
	}
	seed := func() *storage.Database {
		db := storage.NewDatabase(cat)
		for i := 0; i < 24; i++ {
			if err := db.Insert("free", pool[i%len(pool)]); err != nil {
				t.Fatal(err)
			}
			if err := db.Insert("part", value.Tuple{str(fmt.Sprintf("k%d", i)), str("v")}); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	ss, err := shard.New(seed(), acc, shard.Options{Shards: 3, Mode: live.Permissive})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := live.New(seed(), acc, live.Options{Mode: live.Permissive})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for batch := 0; batch < 60; batch++ {
		var ops []live.Op
		for i := 0; i < 1+rng.Intn(5); i++ {
			tu := pool[rng.Intn(len(pool))]
			if rng.Intn(3) == 0 {
				ops = append(ops, live.Insert("free", tu))
			} else {
				ops = append(ops, live.Delete("free", tu))
			}
		}
		if err := ss.Apply(ops); err != nil {
			t.Fatal(err)
		}
		if _, err := ls.Apply(ops); err != nil {
			t.Fatal(err)
		}
		if got, want := sortedTuples(t, relTuples(t, ss, "free")), sortedTuples(t, snapTuples(t, ls, "free")); got != want {
			t.Fatalf("batch %d: free diverged\n sharded: %s\n single:  %s", batch, got, want)
		}
		for _, tu := range pool {
			n := 0
			for s := 0; s < ss.NumShards(); s++ {
				n += ss.Shard(s).LiveCount("free", tu)
			}
			if want := ls.LiveCount("free", tu); n != want {
				t.Fatalf("batch %d: shards hold %d live %s, single store %d", batch, n, tu, want)
			}
		}
		checkShardCards(t, ss, fmt.Sprintf("batch %d", batch))
	}
}
