package obs

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func finishedTrace(id string) *Trace {
	tr := NewTrace(id, "query")
	tr.StartSpan("prepare").End()
	tr.Finish()
	return tr
}

func TestTraceRecorderRetentionCriteria(t *testing.T) {
	r := NewTraceRecorder(TraceRecorderOptions{Capacity: 8, SlowThreshold: 100 * time.Millisecond})

	if got := r.Consider(finishedTrace("fast1"), TraceMeta{Duration: time.Millisecond}); got != nil {
		t.Fatalf("fast request retained: %v", got)
	}
	if got := r.Consider(finishedTrace("slow1"), TraceMeta{Duration: 200 * time.Millisecond}); len(got) != 1 || got[0] != "slow" {
		t.Fatalf("slow reasons = %v", got)
	}
	if got := r.Consider(finishedTrace("err1"), TraceMeta{Duration: time.Millisecond, Err: true}); len(got) != 1 || got[0] != "error" {
		t.Fatalf("error reasons = %v", got)
	}
	if got := r.Consider(finishedTrace("forced1"), TraceMeta{Duration: time.Millisecond, Force: true}); len(got) != 1 || got[0] != "slow-log" {
		t.Fatalf("forced reasons = %v", got)
	}

	if r.Get("fast1") != nil {
		t.Fatal("fast trace should not resolve")
	}
	for _, id := range []string{"slow1", "err1", "forced1"} {
		rt := r.Get(id)
		if rt == nil {
			t.Fatalf("retained trace %q does not resolve", id)
		}
		if len(rt.Spans) == 0 {
			t.Fatalf("retained trace %q has no span tree", id)
		}
	}
	if got := r.Resident(); got != 3 {
		t.Fatalf("resident = %d, want 3", got)
	}
}

func TestTraceRecorderOutlierVsRollingP99(t *testing.T) {
	r := NewTraceRecorder(TraceRecorderOptions{Capacity: 8, MinObservations: 64, OutlierFactor: 1.5})

	// Outlier criterion must stay disarmed before MinObservations.
	if got := r.Consider(finishedTrace("early"), TraceMeta{Duration: time.Second}); got != nil {
		t.Fatalf("outlier armed cold: %v", got)
	}

	// Feed a tight 1ms regime past the rotation point so the rolling p99
	// settles near 1ms.
	for i := 0; i < 2*rollingRotate; i++ {
		r.ObserveLatency(time.Millisecond)
	}
	p99 := r.RollingP99()
	if p99 <= 0 || p99 > 10*time.Millisecond {
		t.Fatalf("rolling p99 = %v, want ≈1ms", p99)
	}

	if got := r.Consider(finishedTrace("outlier1"), TraceMeta{Duration: 500 * time.Millisecond}); len(got) != 1 || got[0] != "outlier" {
		t.Fatalf("outlier reasons = %v (p99 %v)", got, p99)
	}
	if got := r.Consider(finishedTrace("normal1"), TraceMeta{Duration: p99 / 2}); got != nil {
		t.Fatalf("within-regime request retained: %v", got)
	}

	// Regime shift: the window must track the new 100ms normal so 150ms
	// stops being an outlier at factor 1.5 — that is what "rolling" buys
	// over a lifetime p99.
	for i := 0; i < 2*rollingRotate; i++ {
		r.ObserveLatency(100 * time.Millisecond)
	}
	p99 = r.RollingP99()
	if p99 < 50*time.Millisecond {
		t.Fatalf("rolling p99 did not track regime shift: %v", p99)
	}
	if got := r.Consider(finishedTrace("shifted"), TraceMeta{Duration: 120 * time.Millisecond}); got != nil {
		t.Fatalf("new-regime request retained as outlier: %v (p99 %v)", got, p99)
	}
}

func TestTraceRecorderRingBoundsAndEviction(t *testing.T) {
	const capacity = 4
	r := NewTraceRecorder(TraceRecorderOptions{Capacity: capacity})
	reg := NewRegistry()
	r.Instrument(reg)

	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("t%02d", i)
		r.Consider(finishedTrace(id), TraceMeta{Duration: time.Millisecond, Force: true})
	}
	if got := r.Resident(); got != capacity {
		t.Fatalf("resident = %d, want cap %d", got, capacity)
	}
	// Oldest six evicted, newest four resolve.
	for i := 0; i < 6; i++ {
		if r.Get(fmt.Sprintf("t%02d", i)) != nil {
			t.Fatalf("t%02d should be evicted", i)
		}
	}
	for i := 6; i < 10; i++ {
		if r.Get(fmt.Sprintf("t%02d", i)) == nil {
			t.Fatalf("t%02d should be resident", i)
		}
	}
	list := r.List(0)
	if len(list) != capacity {
		t.Fatalf("list = %d entries, want %d", len(list), capacity)
	}
	if list[0].ID != "t09" || list[capacity-1].ID != "t06" {
		t.Fatalf("list order = %s..%s, want t09..t06", list[0].ID, list[capacity-1].ID)
	}
	for _, rt := range list {
		if rt.Spans != nil {
			t.Fatal("List must omit span payloads")
		}
	}
	scrape := reg.Expose()
	if !containsLine(scrape, "bcq_traces_retained_total 10") {
		t.Fatalf("scrape missing retained counter:\n%s", scrape)
	}
	if !containsLine(scrape, "bcq_traces_evicted_total 6") {
		t.Fatalf("scrape missing evicted counter:\n%s", scrape)
	}
	if !containsLine(scrape, "bcq_traces_resident 4") {
		t.Fatalf("scrape missing resident gauge:\n%s", scrape)
	}
}

// containsLine reports whether sub is one whole line of s.
func containsLine(s, sub string) bool {
	return slices.Contains(strings.Split(s, "\n"), sub)
}

func TestTraceRecorderNilSafe(t *testing.T) {
	var r *TraceRecorder
	r.ObserveLatency(time.Second)
	if r.Consider(finishedTrace("x"), TraceMeta{Force: true}) != nil {
		t.Fatal("nil recorder retained")
	}
	if r.Get("x") != nil || r.List(0) != nil || r.Resident() != 0 || r.Capacity() != 0 || r.RollingP99() != 0 {
		t.Fatal("nil recorder accessors not zero")
	}
	r.Instrument(NewRegistry())
	// And a live recorder must survive a nil trace.
	live := NewTraceRecorder(TraceRecorderOptions{})
	if live.Consider(nil, TraceMeta{Force: true}) != nil {
		t.Fatal("nil trace retained")
	}
}

func TestTraceRecorderConcurrent(t *testing.T) {
	r := NewTraceRecorder(TraceRecorderOptions{Capacity: 32, SlowThreshold: time.Microsecond})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				r.ObserveLatency(time.Duration(i%100) * time.Microsecond)
				r.Consider(finishedTrace(id), TraceMeta{Duration: time.Millisecond, Endpoint: "query"})
				_ = r.Get(id)
				_ = r.List(8)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Resident(); got != 32 {
		t.Fatalf("resident = %d, want 32", got)
	}
}
