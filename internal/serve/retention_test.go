package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bcq/internal/engine"
	"bcq/internal/live"
	"bcq/internal/obs"
)

// retentionScene wires the full retention tier — registry, slow log,
// trace recorder, SLO — through store, engine and server.
func retentionScene(t testing.TB, ob *obs.Observer, opts Options) (*httptest.Server, *Server) {
	t.Helper()
	ls := serveScene(t)
	engOpts := engine.Options{Metrics: ob.Reg(), Recorder: ob.TraceRec()}
	if ob.Reg() != nil {
		ls.Instrument(ob.Reg())
	}
	eng, err := engine.NewLive(ls, engOpts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Obs = ob
	opts.Metrics = ls
	if opts.Ingest == nil {
		opts.Ingest = func(ops []live.Op) error {
			_, err := ls.Apply(ops)
			return err
		}
	}
	srv, err := New(eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs, srv
}

const retentionQuery = `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"]}`

// TestSlowLogTraceResolution: with the recorder armed, every slow-log
// entry's trace ID resolves through /debug/traces/{id} to a complete
// span tree tagged with the retention reason.
func TestSlowLogTraceResolution(t *testing.T) {
	var buf syncBuffer
	reg := obs.NewRegistry()
	slow := obs.NewSlowLog(&buf, 0, 1) // every query is slow and sampled
	rec := obs.NewTraceRecorder(obs.TraceRecorderOptions{Capacity: 64})
	hs, _ := retentionScene(t, &obs.Observer{Metrics: reg, SlowLog: slow, Traces: rec}, Options{})

	for i := 0; i < 5; i++ {
		if code, raw := post(t, hs.URL+"/query", retentionQuery); code != http.StatusOK {
			t.Fatalf("query status %d: %s", code, raw)
		}
	}
	// Paged queries write entries too.
	post(t, hs.URL+"/query", `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"], "limit": 2}`)

	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	entries := 0
	for sc.Scan() {
		var e obs.SlowEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("slow-log line invalid: %v", err)
		}
		entries++
		if e.TraceID == "" {
			t.Fatalf("entry %d has no trace ID", entries)
		}
		resp, err := http.Get(hs.URL + "/debug/traces/" + e.TraceID)
		if err != nil {
			t.Fatal(err)
		}
		var rt obs.RetainedTrace
		err = json.NewDecoder(resp.Body).Decode(&rt)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace %s does not resolve: status %d", e.TraceID, resp.StatusCode)
		}
		if err != nil {
			t.Fatal(err)
		}
		if rt.ID != e.TraceID || len(rt.Spans) == 0 {
			t.Fatalf("retained trace incomplete: %+v", rt)
		}
		hasForced := false
		for _, reason := range rt.Reasons {
			if reason == "slow-log" {
				hasForced = true
			}
		}
		if !hasForced {
			t.Fatalf("trace %s reasons = %v, want slow-log", e.TraceID, rt.Reasons)
		}
	}
	if entries == 0 {
		t.Fatal("no slow-log entries written")
	}

	// The listing shows the same traces, newest first, without spans.
	resp, err := http.Get(hs.URL + "/debug/traces?limit=100")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Traces   []obs.RetainedTrace `json:"traces"`
		Resident int                 `json:"resident"`
		Capacity int                 `json:"capacity"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Traces) != entries || listing.Resident != entries || listing.Capacity != 64 {
		t.Fatalf("listing = %d traces, resident %d, cap %d; want %d/%d/64",
			len(listing.Traces), listing.Resident, listing.Capacity, entries, entries)
	}
	for _, rt := range listing.Traces {
		if len(rt.Spans) != 0 {
			t.Fatal("listing must omit span payloads")
		}
	}

	// Unknown IDs are a clean 404.
	resp404, err := http.Get(hs.URL + "/debug/traces/deadbeef00000000")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace status = %d, want 404", resp404.StatusCode)
	}
}

// TestErroredQueryRetained: a failed query's trace is kept with reason
// "error" even when nothing forced it.
func TestErroredQueryRetained(t *testing.T) {
	rec := obs.NewTraceRecorder(obs.TraceRecorderOptions{Capacity: 8})
	hs, _ := retentionScene(t, &obs.Observer{Traces: rec}, Options{})

	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/query",
		strings.NewReader(`{"query": "select nope from nowhere"}`))
	req.Header.Set("X-BQ-Trace-Id", "err-trace-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query status = %d, want 400", resp.StatusCode)
	}
	rt := rec.Get("err-trace-01")
	if rt == nil {
		t.Fatal("errored trace not retained")
	}
	if len(rt.Reasons) != 1 || rt.Reasons[0] != "error" || rt.Outcome != "error" {
		t.Fatalf("retained = %+v, want reason error", rt)
	}
}

// TestHealthzDegradedAndRecovers: an injected latency fault flips
// /healthz to degraded; draining the windows (fake clock) recovers it.
// The SLO is fed directly — the server only renders the verdict — which
// keeps the test deterministic.
func TestHealthzDegradedAndRecovers(t *testing.T) {
	clock := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	advance := func(d time.Duration) { mu.Lock(); clock = clock.Add(d); mu.Unlock() }

	slo := obs.NewSLO(obs.SLOOptions{
		LatencyThreshold: 50 * time.Millisecond,
		ShortWindow:      time.Minute,
		LongWindow:       5 * time.Minute,
		MinRequests:      10,
		Now:              now,
	})
	hs, _ := retentionScene(t, &obs.Observer{SLO: slo}, Options{})

	getHealth := func() (string, bool, *obs.SLOVerdict) {
		t.Helper()
		resp, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hz struct {
			OK     bool            `json:"ok"`
			Status string          `json:"status"`
			SLO    *obs.SLOVerdict `json:"slo"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
			t.Fatal(err)
		}
		return hz.Status, hz.OK, hz.SLO
	}

	if status, ok, v := getHealth(); status != "ok" || !ok || v == nil {
		t.Fatalf("cold health = %q ok=%v slo=%v", status, ok, v)
	}

	// Injected latency fault: 30 requests all blow the 50ms objective.
	for i := 0; i < 30; i++ {
		slo.Record(500*time.Millisecond, false)
	}
	status, ok, v := getHealth()
	if status != "degraded" || v == nil || !v.Degraded || len(v.Reasons) == 0 {
		t.Fatalf("faulted health = %q slo=%+v, want degraded with reasons", status, v)
	}
	if !ok {
		t.Fatal("ok must stay true: it is liveness, not the SLO verdict")
	}

	// Fault clears; healthy traffic resumes after the short window
	// drains the burst.
	advance(90 * time.Second)
	for i := 0; i < 30; i++ {
		slo.Record(time.Millisecond, false)
	}
	if status, _, v := getHealth(); status != "degraded" && v.Latency.LongBurn == 0 {
		t.Fatalf("long burn should still remember the fault: %+v", v.Latency)
	}
	// And once the long window drains too, fully recovered.
	advance(6 * time.Minute)
	for i := 0; i < 30; i++ {
		slo.Record(time.Millisecond, false)
	}
	if status, _, v := getHealth(); status != "ok" || v.Degraded {
		t.Fatalf("drained health = %q slo=%+v, want ok", status, v)
	}
}

// TestStatsLatencyBlock: /stats carries per-endpoint p50/p95/p99 merged
// across outcomes, consistent with the request counts.
func TestStatsLatencyBlock(t *testing.T) {
	reg := obs.NewRegistry()
	hs, _ := retentionScene(t, &obs.Observer{Metrics: reg}, Options{})
	for i := 0; i < 6; i++ {
		post(t, hs.URL+"/query", retentionQuery)
	}
	post(t, hs.URL+"/query", `{"query": "select nope from nowhere"}`) // client_error merges in

	resp, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Latency map[string]EndpointLatency `json:"latency"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	q, ok := st.Latency["query"]
	if !ok {
		t.Fatalf("latency block missing query endpoint: %+v", st.Latency)
	}
	if q.Count != 7 {
		t.Fatalf("query latency count = %d, want 7 (ok + client_error merged)", q.Count)
	}
	if q.P50MS <= 0 || q.P50MS > q.P95MS || q.P95MS > q.P99MS {
		t.Fatalf("quantiles not ordered: %+v", q)
	}
}

// TestDebugScrapeUnderChurn scrapes /metrics, /debug/traces, /healthz and
// /stats while paged queries churn the cursor registry past its cap and
// ingest advances epochs — the -race run is the point.
func TestDebugScrapeUnderChurn(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewTraceRecorder(obs.TraceRecorderOptions{Capacity: 16})
	slo := obs.NewSLO(obs.SLOOptions{LatencyThreshold: 50 * time.Millisecond})
	ob := &obs.Observer{Metrics: reg, Traces: rec, SLO: slo}
	// CursorCap 2 forces eviction on nearly every paged query.
	hs, _ := retentionScene(t, ob, Options{CursorCap: 2, CursorTTL: 50 * time.Millisecond})

	stop := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(3)
		go func() { // paged queries: cursor create/evict churn
			defer wg.Done()
			for time.Now().Before(stop) {
				post(t, hs.URL+"/query", `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"], "limit": 1}`)
			}
		}()
		go func() { // ingest: epoch churn
			defer wg.Done()
			for time.Now().Before(stop) {
				post(t, hs.URL+"/ingest", `{"ops": [{"op": "insert", "rel": "friends", "tuple": ["u0", "f1"]}]}`)
			}
		}()
		go func() { // scrape the read-only surfaces
			defer wg.Done()
			for time.Now().Before(stop) {
				for _, path := range []string{"/metrics", "/debug/traces", "/healthz", "/stats"} {
					resp, err := http.Get(hs.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					var buf bytes.Buffer
					buf.ReadFrom(resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()

	// Memory stayed bounded: the ring at its cap, never beyond.
	if got := rec.Resident(); got > 16 {
		t.Fatalf("recorder resident %d > cap 16", got)
	}
}
