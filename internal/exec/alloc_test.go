package exec

import (
	"math/rand"
	"testing"

	"bcq/internal/core"
	"bcq/internal/plan"
	"bcq/internal/schema"
	"bcq/internal/spc"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// friendsScene builds a sealed friends graph — every user has `friends`
// distinct friends drawn from a seeded generator — and plans the 2-hop
// friends-of-friends query of one user.
func friendsScene(t testing.TB, users, friends int) (*plan.Plan, *storage.Database) {
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
	q := spc.MustParse("select f2.friend_id from friends as f1, friends as f2 "+
		"where f1.user_id = 7 and f2.user_id = f1.friend_id", cat)
	an, err := core.NewAnalysis(cat, q, acc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.QPlan(an)
	if err != nil {
		t.Fatal(err)
	}
	return p, db
}

// TestExecAllocsPerFetchedTuple guards the hot path's memory discipline:
// hashed sets and arena rows make an evaluation allocate per batch, not
// per fetched tuple. Both the materializing run and a drained
// default-batch stream must stay at or below one allocation per fetched
// tuple.
func TestExecAllocsPerFetchedTuple(t *testing.T) {
	p, db := friendsScene(t, 2000, 32)
	res, err := Run(p, db)
	if err != nil {
		t.Fatal(err)
	}
	fetched := float64(res.Stats.TuplesFetched)
	if fetched < 1000 || len(res.Tuples) == 0 {
		t.Fatalf("fixture fetched %.0f tuples for %d answers; want a 2-hop fan-out", fetched, len(res.Tuples))
	}
	runs := map[string]func(){
		"run": func() {
			if _, err := Run(p, db); err != nil {
				t.Fatal(err)
			}
		},
		"stream": func() {
			if _, err := OpenStream(p, db, StreamOptions{}).Drain(); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, fn := range runs {
		per := testing.AllocsPerRun(10, fn) / fetched
		t.Logf("%s: %.3f allocations per fetched tuple (%.0f fetched)", name, per, fetched)
		if per > 1 {
			t.Errorf("%s: %.2f allocations per fetched tuple, want ≤ 1", name, per)
		}
	}
}

// TestStreamTuplesNeverOverwritten pins the arena contract: tuples Next
// hands out are kept by callers (result caches, cursors paging a scan),
// so continuing the stream must never write over them.
func TestStreamTuplesNeverOverwritten(t *testing.T) {
	p, db := fanoutScene(t, 40, 25) // 1000 answers
	for _, bs := range streamBatchSizes {
		s := OpenStream(p, db, StreamOptions{BatchSize: bs})
		var page, copies []value.Tuple
		for len(page) < 64 {
			tu, ok, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("batch %d: stream ended after %d answers", bs, len(page))
			}
			page = append(page, tu)
			copies = append(copies, tu.Clone())
		}
		rest, err := s.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if got := len(page) + len(rest.Tuples); got != 1000 {
			t.Fatalf("batch %d: %d answers across the page and the rest, want 1000", bs, got)
		}
		for i := range page {
			if !page[i].Equal(copies[i]) {
				t.Fatalf("batch %d: first-page tuple %d changed from %v to %v after draining", bs, i, copies[i], page[i])
			}
		}
	}

	// A limited stream's page must survive further evaluations too.
	lim, err := OpenStream(p, db, StreamOptions{Limit: 10}).Drain()
	if err != nil {
		t.Fatal(err)
	}
	kept := make([]value.Tuple, len(lim.Tuples))
	for i, tu := range lim.Tuples {
		kept[i] = tu.Clone()
	}
	if _, err := Run(p, db); err != nil {
		t.Fatal(err)
	}
	if !sameTuples(lim.Tuples, kept) {
		t.Fatalf("limited answers changed after another run: %v, want %v", lim.Tuples, kept)
	}
}

// TestRowSetCollisions drives the row set with hashes the test chooses:
// rows that collide but differ must both be kept, equal rows (which the
// caller hashes equally) must be deduplicated, and the stored rows must
// not alias the caller's scratch row.
func TestRowSetCollisions(t *testing.T) {
	s := rowSet{width: 2}
	scratch := make(value.Tuple, 2)
	put := func(h uint64, a, b int64) bool {
		scratch[0], scratch[1] = value.Int(a), value.Int(b)
		return s.insert(h, scratch)
	}
	const same = 42
	new1 := put(same, 1, 2)
	new2 := put(same, 2, 1) // collides with (1, 2), differs
	dup := put(same, 1, 2)  // equal to the first row
	if !new1 || !new2 || dup {
		t.Fatalf("insert results = %v %v %v, want true true false", new1, new2, dup)
	}
	if len(s.rows) != 2 {
		t.Fatalf("set holds %d rows, want 2", len(s.rows))
	}
	r1, r2 := s.rows[0], s.rows[1]
	if !r1.Equal(value.Tuple{value.Int(1), value.Int(2)}) || !r2.Equal(value.Tuple{value.Int(2), value.Int(1)}) {
		t.Fatalf("stored rows = %v %v, want (1, 2) (2, 1)", r1, r2)
	}

	// Many rows on one hash, then many on distinct hashes: the table
	// grows through collisions and keeps insertion order.
	for i := int64(0); i < 300; i++ {
		put(same, i, -i)
		put(uint64(i), i, i+1000)
	}
	if len(s.rows) != 2+300+300 {
		t.Fatalf("set holds %d rows, want %d", len(s.rows), 2+300+300)
	}
	for i := int64(0); i < 300; i++ {
		if put(same, i, -i) {
			t.Fatalf("(%d, %d) re-admitted", i, -i)
		}
	}
	if !s.rows[0].Equal(value.Tuple{value.Int(1), value.Int(2)}) || !s.rows[2].Equal(value.Tuple{value.Int(0), value.Int(0)}) {
		t.Fatalf("insertion order lost: rows start %v", s.rows[:3])
	}
	if !r1.Equal(value.Tuple{value.Int(1), value.Int(2)}) {
		t.Fatalf("stored row changed to %v after later inserts", r1)
	}
}

// TestCandSetMembership checks candidate sets over mixed kinds, where
// equal-looking values of different kinds must stay distinct.
func TestCandSetMembership(t *testing.T) {
	var s candSet
	vals := []value.Value{value.Int(1), value.Str("1"), value.Null, value.Int(-1), value.Str("")}
	for round := 0; round < 2; round++ {
		for _, v := range vals {
			s.add(v)
		}
	}
	for i := int64(0); i < 100; i++ {
		s.add(value.Int(i + 10))
	}
	if len(s.vals) != len(vals)+100 {
		t.Fatalf("set holds %d values, want %d", len(s.vals), len(vals)+100)
	}
	for i, v := range vals {
		if s.vals[i] != v || !s.has(v) {
			t.Fatalf("value %v missing or out of order", v)
		}
	}
	if s.has(value.Int(2)) || s.has(value.Str("x")) {
		t.Fatal("has reports a value never added")
	}
}

// TestDQSetMatchesMap checks the |D_Q| set against a Go map over keys
// that collide in the low bits, repeat, and span shards.
func TestDQSetMatchesMap(t *testing.T) {
	d := newDQTracker()
	want := map[[3]int]bool{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		rel := []string{"a", "b"}[rng.Intn(2)]
		shard, pos := rng.Intn(3), rng.Intn(2000)<<rng.Intn(20)
		d.add(d.rel(rel), shard, pos)
		want[[3]int{len(rel) + int(rel[0]), shard, pos}] = true
		if d.size() != int64(len(want)) {
			t.Fatalf("after %d adds: size %d, want %d", i+1, d.size(), len(want))
		}
	}
}
