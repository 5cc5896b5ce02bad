package engine

import (
	"sync"
	"sync/atomic"
	"testing"

	"bcq/internal/exec"
	"bcq/internal/live"
	"bcq/internal/schema"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// fixedAnswerScene builds a live store over r(a, b) that is effectively
// bounded from the start (r: (a) -> (b, N)), holding the fixed answer
// group a=1 -> {10, 11}, under a default engine.
func fixedAnswerScene(t testing.TB) (*live.Store, *Engine) {
	t.Helper()
	r, err := schema.NewRelation("r", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	cat, err := schema.NewCatalog(r)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := schema.NewAccessSchema(schema.MustAccessConstraint("r", []string{"a"}, []string{"b"}, 100))
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(cat)
	for _, b := range []int64{10, 11} {
		if err := db.Insert("r", value.Tuple{value.Int(1), value.Int(b)}); err != nil {
			t.Fatal(err)
		}
	}
	ls, err := live.New(db, acc, live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewLive(ls, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ls, e
}

const fixedAnswerQuery = `select b from r where a = 1`

// wantFixedAnswers checks a result is exactly the fixed group (10), (11).
func wantFixedAnswers(t testing.TB, res *exec.Result) {
	t.Helper()
	if len(res.Tuples) != 2 || res.Tuples[0][0] != value.Int(10) || res.Tuples[1][0] != value.Int(11) {
		t.Fatalf("answers = %v, want (10) and (11)", res.Tuples)
	}
}

// TestPreparedSurvivesSchemaExtension runs prepare -> ExtendAccess ->
// exec: a Prepared built before the extension keeps answering from the
// plan it was built with, and a prepare after the extension answers the
// same.
func TestPreparedSurvivesSchemaExtension(t *testing.T) {
	ls, e := fixedAnswerScene(t)
	prep, err := e.Prepare(fixedAnswerQuery)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.ExtendAccess(schema.MustAccessConstraint("r", []string{"b"}, []string{"a"}, 100)); err != nil {
		t.Fatal(err)
	}
	res, err := prep.Exec()
	if err != nil {
		t.Fatal(err)
	}
	wantFixedAnswers(t, res)

	again, err := e.Prepare(fixedAnswerQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = again.Exec(); err != nil {
		t.Fatal(err)
	}
	wantFixedAnswers(t, res)
}

// TestExecRaceDuringDriftReplan hammers the drift re-plan window under
// the race detector: executors Prepare and Exec a fixed-answer query in
// a loop while an ingester drifts the statistics of other groups, so
// cache hits keep discarding plans and building new Prepareds. Every
// execution, whichever plan generation it lands on, must produce exactly
// the fixed answer set.
func TestExecRaceDuringDriftReplan(t *testing.T) {
	ls, e := fixedAnswerScene(t)

	const (
		executors = 4
		iters     = 150
	)
	var (
		execWG, ingestWG sync.WaitGroup
		mu               sync.Mutex
		failure          string
		ingested         atomic.Bool
	)
	fail := func(msg string) {
		mu.Lock()
		if failure == "" {
			failure = msg
		}
		mu.Unlock()
	}
	stop := make(chan struct{})

	// Ingester: grow groups a >= 2 so cardinalities drift while executors
	// run; executors keep going until it is done.
	ingestWG.Add(1)
	go func() {
		defer ingestWG.Done()
		defer ingested.Store(true)
		// Spread over many groups and cap the volume so no group ever
		// approaches the N=100 bound.
		for i := int64(0); i < 20000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := ls.Insert("r", value.Tuple{value.Int(2 + i%997), value.Int(1000 + i)}); err != nil {
				fail("insert: " + err.Error())
				return
			}
		}
	}()

	for g := 0; g < executors; g++ {
		execWG.Add(1)
		go func() {
			defer execWG.Done()
			for i := 0; i < iters || !ingested.Load(); i++ {
				prep, err := e.Prepare(fixedAnswerQuery)
				if err != nil {
					fail("prepare: " + err.Error())
					return
				}
				res, err := prep.Exec()
				if err != nil {
					fail("exec: " + err.Error())
					return
				}
				if len(res.Tuples) != 2 || res.Tuples[0][0] != value.Int(10) || res.Tuples[1][0] != value.Int(11) {
					fail("unexpected answers for a=1: " + res.Tuples[0].String())
					return
				}
			}
		}()
	}

	execWG.Wait()
	close(stop)
	ingestWG.Wait()

	if failure != "" {
		t.Fatal(failure)
	}
	// After the dust settles the current plan still answers correctly,
	// and the drift forced at least one re-plan along the way.
	prep, err := e.Prepare(fixedAnswerQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Exec()
	if err != nil {
		t.Fatal(err)
	}
	wantFixedAnswers(t, res)
	if st := e.Stats(); st.Replans == 0 {
		t.Fatalf("no drift re-plan happened: %+v", st)
	}
}
