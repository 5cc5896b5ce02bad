package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"bcq/internal/baseline"
	"bcq/internal/engine"
	"bcq/internal/live"
	"bcq/internal/schema"
	"bcq/internal/spc"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// The correctness gate: any failure here fails the run instead of being
// reported as a metric.

// sampleReads is how many reads are re-issued after the timed phase and
// compared with the baseline evaluator.
const sampleReads = 12

// maxErrors caps the failures one gate lists.
const maxErrors = 5

// gateErr collects gate failures.
type gateErr []string

func (g *gateErr) add(format string, args ...any) {
	if len(*g) < maxErrors {
		*g = append(*g, fmt.Sprintf(format, args...))
	}
}

func (g gateErr) err(gate string) error {
	if len(g) == 0 {
		return nil
	}
	return fmt.Errorf("correctness gate %q failed: %v", gate, []string(g))
}

// checkOutcomes requires every op to have succeeded and every page to
// honour its page size: at most limit answers, exactly limit when the page
// handed back a cursor.
func checkOutcomes(reqs []request, outs []outcome) error {
	var g gateErr
	for i, o := range outs {
		if o.err != "" {
			g.add("op %d: %s", i, o.err)
			continue
		}
		if reqs[i].kind != opPage {
			continue
		}
		for p := 0; p < 2; p++ {
			if n, lim := o.pages[p], reqs[i].limit; n > lim || (o.more[p] && n != lim) {
				g.add("op %d page %d: %d answers with page size %d (more=%v)", i, p, n, lim, o.more[p])
			}
		}
	}
	return g.err("every op returns 2xx")
}

// planBounds prepares every distinct query of reqs on eng, in parallel,
// and returns each plan's fetch bound; -1 marks an unbounded plan.
func planBounds(eng *engine.Engine, reqs []request) (map[string]int64, error) {
	var queries []string
	bounds := map[string]int64{}
	for _, r := range reqs {
		if _, ok := bounds[r.query]; r.kind != opWrite && !ok {
			bounds[r.query] = -1
			queries = append(queries, r.query)
		}
	}
	out := make([]int64, len(queries))
	errs := make([]error, len(queries))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(queries); i = int(next.Add(1)) - 1 {
				p, err := eng.Prepare(queries[i])
				if err != nil {
					errs[i] = err
					continue
				}
				out[i] = -1
				if fb := p.FetchBound(); !fb.IsUnbounded() {
					out[i] = fb.Int64()
				}
			}
		}()
	}
	wg.Wait()
	for i, q := range queries {
		if errs[i] != nil {
			return nil, fmt.Errorf("preparing %s: %w", q, errs[i])
		}
		bounds[q] = out[i]
	}
	return bounds, nil
}

// checkBounds requires every executed read to fetch at most its plan's
// bound.
func checkBounds(reqs []request, outs []outcome, bounds map[string]int64) error {
	var g gateErr
	for i, o := range outs {
		if reqs[i].kind == opWrite || o.cached {
			continue
		}
		if b := bounds[reqs[i].query]; b >= 0 && o.fetched > b {
			g.add("op %d fetched %d > bound %d: %s %v", i, o.fetched, b, reqs[i].query, reqs[i].args)
		}
	}
	return g.err("fetched <= FetchBound")
}

// checkWrites requires every acknowledged write to be visible: a tuple the
// batch inserted and kept is live, one it deleted again is not.
func checkWrites(reqs []request, ok func(i int) bool, liveCount func(string, value.Tuple) int) error {
	var g gateErr
	for i, r := range reqs {
		if r.kind != opWrite || !ok(i) {
			continue
		}
		for _, op := range r.ops {
			want := 1
			if deletedLater(r.ops, op) {
				want = 0
			}
			if op.Kind == live.OpInsert && liveCount(op.Rel, op.Tuple) != want {
				g.add("op %d: %s%v has %d live copies, want %d", i, op.Rel, op.Tuple, liveCount(op.Rel, op.Tuple), want)
			}
		}
	}
	return g.err("acknowledged writes are present")
}

// deletedLater reports whether ops deletes the tuple ins inserts.
func deletedLater(ops []live.Op, ins live.Op) bool {
	for _, op := range ops {
		if op.Kind == live.OpDelete && op.Rel == ins.Rel && op.Tuple.Equal(ins.Tuple) {
			return true
		}
	}
	return false
}

// sampleIndexes draws up to sampleReads read ops from the seed.
func sampleIndexes(seed int64, reqs []request) []int {
	var reads []int
	for i, r := range reqs {
		if r.kind != opWrite {
			reads = append(reads, i)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5a3913))
	rng.Shuffle(len(reads), func(a, b int) { reads[a], reads[b] = reads[b], reads[a] })
	return reads[:min(sampleReads, len(reads))]
}

// baselineAnswer evaluates a request with the unbounded baseline evaluator
// over db and renders its answer the way /query renders tuples.
func baselineAnswer(cat *schema.Catalog, db *storage.Database, r *request) ([]byte, error) {
	q, err := spc.Parse(r.query, cat)
	if err != nil {
		return nil, err
	}
	if len(q.Placeholders) != len(r.args) {
		return nil, fmt.Errorf("%s: %d placeholders, %d args", r.query, len(q.Placeholders), len(r.args))
	}
	binds := make(map[spc.AttrRef]value.Value, len(r.args))
	for i, ref := range q.Placeholders {
		binds[ref] = value.Int(r.args[i])
	}
	cl, err := spc.NewClosure(q.Instantiate(binds), cat)
	if err != nil {
		return nil, err
	}
	res, err := baseline.IndexLoop(cl, db, baseline.Options{})
	if err != nil {
		return nil, err
	}
	rows := make([][]any, len(res.Tuples))
	for i, t := range res.Tuples {
		row := make([]any, len(t))
		for j, v := range t {
			switch v.Kind() {
			case value.KindInt:
				row[j] = v.AsInt()
			case value.KindString:
				row[j] = v.AsString()
			}
		}
		rows[i] = row
	}
	return json.Marshal(rows)
}

// checkSample re-issues sampled reads over HTTP once nothing writes any
// more and compares them with the baseline over db, the frozen final
// state: a full read must be byte-identical, and the pages of a paged
// read distinct members of the full answer.
func checkSample(url string, cat *schema.Catalog, db *storage.Database, reqs []request, idx []int) error {
	c := newClient(url)
	defer c.hc.CloseIdleConnections()
	var g gateErr
	for _, i := range idx {
		r := &reqs[i]
		want, err := baselineAnswer(cat, db, r)
		if err != nil {
			return fmt.Errorf("baseline for op %d: %w", i, err)
		}
		if r.kind == opRead {
			if err := c.post("/query", r.body()); err != nil {
				return err
			}
			var resp struct {
				Result struct {
					Tuples json.RawMessage `json:"tuples"`
				} `json:"result"`
			}
			if err := json.Unmarshal(c.buf.Bytes(), &resp); err != nil {
				return err
			}
			if !bytes.Equal(resp.Result.Tuples, want) {
				g.add("op %d %s %v: answer %.200s differs from baseline %.200s", i, r.query, r.args, resp.Result.Tuples, want)
			}
			continue
		}
		var full [][]json.RawMessage
		if err := json.Unmarshal(want, &full); err != nil {
			return err
		}
		member := make(map[string]bool, len(full))
		for _, row := range full {
			member[string(mustJSON(row))] = true
		}
		var o outcome
		pages, err := c.page(r.body(), r.limit, &o, true)
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		seen := map[string]bool{}
		for _, t := range pages {
			k := string(t)
			if !member[k] || seen[k] {
				g.add("op %d %s %v: paged answer %s is not a distinct member of the full answer", i, r.query, r.args, k)
			}
			seen[k] = true
		}
	}
	return g.err("sampled reads equal the baseline")
}
