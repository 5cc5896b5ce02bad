package main

import (
	"fmt"
	"path/filepath"
	"runtime"

	"bcq/internal/engine"
	"bcq/internal/exec"
)

// The traced run replays the e2e run's seeded requests in process, one at
// a time, on a freshly built stack without the server: counts and
// allocations repeat exactly and nothing waits. Each request gets a root
// span and a child span around each call into a layer's public functions,
// the same calls the server makes: engine.Prepare, engine.View, then
// Prepared.ExecOn (full reads) or Prepared.ExecStreamOn and Stream.Next
// (paged reads), and shard.Store.Apply or live.Store.Apply (writes). The
// result cache is not in this run; its hit ratio comes from the e2e run.

// execTotals accumulates the exec layer's counts over the replay.
type execTotals struct {
	reads, fetched, lookups, answers float64
	estFetch, estFetched             float64 // full reads only
	allocs, bytes                    float64
	boundMax                         float64
}

func runTraced(w *workload, seed int64, e2e *e2eResult, dir string) (map[string]metric, error) {
	st, err := build(w, seed, dir, false)
	if err != nil {
		return nil, err
	}
	defer st.close()
	dataS, storeS := append(e2e.dataS, st.dataS), append(e2e.storeS, st.storeS)

	tr := newTracer()
	var tot execTotals
	hit := make([]bool, len(e2e.reqs))
	var mem0, mem1 runtime.MemStats
	for i := range e2e.reqs {
		r := &e2e.reqs[i]
		root := tr.begin(i, -1, "request")
		if r.kind == opWrite {
			sp := tr.begin(i, root, applyName(st))
			err := st.apply(r.ops)
			tr.end(sp)
			tr.end(root)
			if err != nil {
				return nil, fmt.Errorf("replay op %d: %w", i, err)
			}
			continue
		}
		hits := st.eng.Stats().CacheHits
		sp := tr.begin(i, root, "engine.Prepare")
		p, err := st.eng.Prepare(r.query)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("replay op %d: %w", i, err)
		}
		hit[i] = st.eng.Stats().CacheHits > hits
		sp = tr.begin(i, root, "engine.View")
		view := st.eng.View()
		tr.end(sp)

		runtime.ReadMemStats(&mem0)
		var res *exec.Result
		answers := 0
		if r.kind == opRead {
			sp = tr.begin(i, root, "exec.ExecOn")
			res, err = p.ExecOn(view, r.argValues()...)
			tr.end(sp)
			if err == nil {
				answers = len(res.Tuples)
			}
		} else {
			res, answers, err = replayPages(tr, i, root, p, view, r)
		}
		runtime.ReadMemStats(&mem1)
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("replay op %d: %w", i, err)
		}
		f := float64(res.Stats.TuplesFetched)
		tot.reads++
		tot.fetched += f
		tot.lookups += float64(res.Stats.IndexLookups)
		tot.answers += float64(answers)
		tot.allocs += float64(mem1.Mallocs - mem0.Mallocs)
		tot.bytes += float64(mem1.TotalAlloc - mem0.TotalAlloc)
		if r.kind == opRead {
			tot.estFetch += p.EstFetch()
			tot.estFetched += f
		}
		if fb := p.FetchBound(); !fb.IsUnbounded() {
			b := float64(fb.Int64())
			if f > b {
				return nil, fmt.Errorf("correctness gate \"fetched <= FetchBound\" failed: replay op %d fetched %.0f > bound %.0f: %s %v", i, f, b, r.query, r.args)
			}
			if b > 0 {
				tot.boundMax = max(tot.boundMax, f/b)
			}
		}
	}
	ok := func(int) bool { return true }
	if err := checkWrites(e2e.reqs, ok, st.liveCount); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.tsv", w.name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans written to %s\n", path)

	m := map[string]metric{}
	for k, v := range e2e.layer {
		m[k] = v
	}
	isRead := func(s span) bool { return e2e.reqs[s.req].kind != opWrite }
	reqP50 := pct(tr.durations("request", isRead), 0.50)
	m["serve.gap_us_p50"] = metric{e2e.readP50 - reqP50, "us"}

	es := st.eng.Stats()
	m["engine.plan_hit_ratio"] = metric{ratio(float64(es.CacheHits), float64(es.Prepares)), "ratio"}
	m["engine.evictions"] = metric{float64(es.Evictions), "count"}
	m["engine.replans"] = metric{float64(es.Replans), "count"}
	hitSpan := func(s span) bool { return hit[s.req] }
	missSpan := func(s span) bool { return !hit[s.req] }
	m["engine.prepare_hit_us_p50"] = metric{pct(tr.durations("engine.Prepare", hitSpan), 0.50), "us"}
	misses := tr.durations("engine.Prepare", missSpan)
	m["engine.prepare_miss_us_p50"] = metric{pct(misses, 0.50), "us"}
	m["engine.prepare_miss_us_p99"] = metric{pct(misses, 0.99), "us"}

	m["plan.est_fetch_ratio"] = metric{ratio(tot.estFetched, tot.estFetch), "ratio"}

	runs := tr.durations("exec.ExecOn", nil)
	m["exec.run_us_p50"] = metric{pct(runs, 0.50), "us"}
	m["exec.run_us_p99"] = metric{pct(runs, 0.99), "us"}
	m["exec.first_page_us_p50"] = metric{pct(tr.durations("exec.first_page", nil), 0.50), "us"}
	m["exec.fetched_per_read"] = metric{ratio(tot.fetched, tot.reads), "tuples"}
	m["exec.lookups_per_read"] = metric{ratio(tot.lookups, tot.reads), "count"}
	m["exec.answers_per_fetched"] = metric{ratio(tot.answers, tot.fetched), "ratio"}
	m["exec.fetch_to_bound_max"] = metric{tot.boundMax, "ratio"}
	m["exec.allocs_per_fetched"] = metric{ratio(tot.allocs, tot.fetched), "count"}
	m["exec.bytes_per_fetched"] = metric{ratio(tot.bytes, tot.fetched), "B"}

	applies := tr.durations(applyName(st), nil)
	m["shard.apply_us_p50"] = metric{pct(applies, 0.50), "us"}
	m["shard.apply_us_p99"] = metric{pct(applies, 0.99), "us"}
	m["shard.lookup_skew"] = metric{lookupSkew(st), "ratio"}

	ig := st.ingestStats()
	m["live.admitted_ratio"] = metric{ratio(float64(ig.OpsApplied), float64(ig.OpsApplied+ig.OpsRejected+ig.OpsQuarantined)), "ratio"}
	m["live.flattens"] = metric{float64(ig.Flattens), "count"}
	m["live.epochs"] = metric{float64(ig.Epochs), "count"}

	var appends, appended, size float64
	for _, ls := range st.liveStores() {
		if wl := ls.WAL(); wl != nil {
			ws := wl.Stats()
			appends += float64(ws.Appends)
			appended += float64(ws.AppendedBytes)
			size += float64(ws.SizeBytes)
		}
	}
	m["wal.bytes_per_op"] = metric{ratio(appended, float64(ig.OpsApplied)), "B"}
	m["wal.appends_per_batch"] = metric{ratio(appends, float64(ig.Batches)), "ratio"}
	m["wal.size_bytes"] = metric{size, "B"}

	m["setup.data_s"] = metric{median(dataS), "s"}
	m["setup.store_s"] = metric{median(storeS), "s"}
	return m, nil
}

// replayPages replays a paged read as the server serves it: open the
// stream on the pinned view, pull one page, then the continuation.
func replayPages(tr *tracer, i, root int, p *engine.Prepared, view exec.Store, r *request) (*exec.Result, int, error) {
	sp := tr.begin(i, root, "exec.first_page")
	s, err := p.ExecStreamOn(view, exec.StreamOptions{}, r.argValues()...)
	n := 0
	if err == nil {
		n, err = pull(s, r.limit)
	}
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	defer s.Close()
	if s.Done() {
		return s.Result(), n, nil
	}
	sp = tr.begin(i, root, "exec.next_page")
	m, err := pull(s, r.limit)
	tr.end(sp)
	return s.Result(), n + m, err
}

// pull reads up to n answers from a stream.
func pull(s *exec.Stream, n int) (int, error) {
	for got := 0; got < n; got++ {
		_, ok, err := s.Next()
		if err != nil || !ok {
			return got, err
		}
	}
	return n, nil
}

// applyName names the write call of the stack's store.
func applyName(st *stack) string {
	if st.ss != nil {
		return "shard.Apply"
	}
	return "live.Apply"
}

// lookupSkew is the busiest shard's index lookups over the mean; 0 on an
// unsharded store.
func lookupSkew(st *stack) float64 {
	if st.ss == nil {
		return 0
	}
	var sum, top float64
	per := st.ss.ShardStats()
	for _, s := range per {
		sum += float64(s.IndexLookups)
		top = max(top, float64(s.IndexLookups))
	}
	return ratio(top, sum/float64(len(per)))
}

// pct is a supported percentile, or 0 when too few samples lie beyond it.
func pct(xs []float64, q float64) float64 {
	v, ok := percentile(xs, q)
	if !ok {
		return 0
	}
	return v
}
