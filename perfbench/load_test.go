package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDueTime stalls the first request and checks that
// the ops queued behind it on the single connection are timed from their
// due times, so the stall shows on every one of them.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"result":{"tuples":[],"stats":{"tuples_fetched":0}},"cached":false}`))
	}))
	defer srv.Close()

	due := []time.Duration{0, 50 * time.Millisecond, 100 * time.Millisecond, 150 * time.Millisecond, 600 * time.Millisecond}
	reqs := make([]request, len(due))
	bodies := make([][]byte, len(due))
	for i := range reqs {
		reqs[i] = request{kind: opRead, query: "q"}
		bodies[i] = reqs[i].body()
	}
	start := time.Now().Add(20 * time.Millisecond)
	outs := drive(srv.URL, 1, start, reqs, bodies, due)

	for i, o := range outs {
		if o.err != "" {
			t.Fatalf("op %d: %s", i, o.err)
		}
	}
	for i := 1; i <= 3; i++ {
		o := outs[i]
		if o.from != due[i] {
			t.Errorf("op %d found the connection busy: latency must count from its due time %v, counts from %v", i, due[i], o.from)
		}
		if lat, min := o.end-o.from, stall-due[i]; lat < min {
			t.Errorf("op %d latency %v hides the stall: want at least %v", i, lat, min)
		}
		if lag := o.send - due[i]; lag < stall-due[i]-10*time.Millisecond {
			t.Errorf("op %d lag %v: it cannot have been sent before the stall ended", i, lag)
		}
	}
	// The last op is due after the stall has drained: its connection is
	// idle, so it is timed from when it was actually sent.
	if o := outs[4]; o.from < due[4] || o.end-o.from > 100*time.Millisecond {
		t.Errorf("op 4 on an idle connection: from %v (due %v), latency %v", o.from, due[4], o.end-o.from)
	}
}
