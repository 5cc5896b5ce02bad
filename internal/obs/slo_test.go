package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock hands the SLO monitor a deterministic, advancing time.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}

func newTestSLO(clk *fakeClock) *SLO {
	return NewSLO(SLOOptions{
		LatencyThreshold: 100 * time.Millisecond,
		LatencyBudget:    0.01,
		ErrorBudget:      0.001,
		ShortWindow:      time.Minute,
		LongWindow:       5 * time.Minute,
		BurnThreshold:    2.0,
		MinRequests:      20,
		Now:              clk.now,
	})
}

// record lands n requests of duration d at the clock's current second.
func record(s *SLO, n int, d time.Duration, isErr bool) {
	for i := 0; i < n; i++ {
		s.Record(d, isErr)
	}
}

func TestSLOHealthyUnderNormalTraffic(t *testing.T) {
	clk := newFakeClock()
	s := newTestSLO(clk)
	// 100 fast requests, one slow: 1% slow = burn 1.0, below threshold 2.
	for i := 0; i < 99; i++ {
		s.Record(time.Millisecond, false)
		clk.advance(time.Second)
	}
	s.Record(200*time.Millisecond, false)
	v := s.Verdict()
	if v.Degraded {
		t.Fatalf("healthy traffic degraded: %+v", v)
	}
	if v.Latency == nil || v.Errors == nil {
		t.Fatalf("verdict missing burn blocks: %+v", v)
	}
}

func TestSLOLatencyFaultDegradesAndRecovers(t *testing.T) {
	clk := newFakeClock()
	s := newTestSLO(clk)

	// Injected latency fault: every request blows the 100ms objective.
	// Slow fraction 1.0 against budget 0.01 → burn 100x in both windows.
	record(s, 30, 500*time.Millisecond, false)
	v := s.Verdict()
	if !v.Degraded {
		t.Fatalf("latency fault not detected: %+v", v)
	}
	if len(v.Reasons) == 0 || !strings.Contains(v.Reasons[0], "latency burn") {
		t.Fatalf("reasons = %v", v.Reasons)
	}
	if v.Latency.ShortBurn < 50 || v.Latency.LongBurn < 50 {
		t.Fatalf("burns = %+v, want ≈100x", v.Latency)
	}

	// Fault clears; fast traffic resumes. Inside the short window the
	// verdict may stay degraded, but once the short window drains the
	// slow burst the short burn collapses and the conjunction breaks.
	clk.advance(90 * time.Second)
	record(s, 30, time.Millisecond, false)
	v = s.Verdict()
	if v.Degraded {
		t.Fatalf("short window drained but still degraded: %+v", v)
	}

	// And after the long window drains too, the long burn hits zero.
	clk.advance(6 * time.Minute)
	record(s, 30, time.Millisecond, false)
	v = s.Verdict()
	if v.Degraded || v.Latency.LongBurn != 0 {
		t.Fatalf("long window did not drain: %+v", v.Latency)
	}
}

func TestSLOErrorBurn(t *testing.T) {
	clk := newFakeClock()
	s := newTestSLO(clk)
	// 5 errors in 50 requests = 10% against a 0.1% budget → burn 100x.
	record(s, 45, time.Millisecond, false)
	record(s, 5, time.Millisecond, true)
	v := s.Verdict()
	if !v.Degraded {
		t.Fatalf("error fault not detected: %+v", v)
	}
	found := false
	for _, r := range v.Reasons {
		if strings.Contains(r, "error burn") {
			found = true
		}
	}
	if !found {
		t.Fatalf("reasons = %v, want error burn", v.Reasons)
	}
}

func TestSLOMinRequestsSuppressesColdVerdict(t *testing.T) {
	clk := newFakeClock()
	s := newTestSLO(clk)
	// 5 slow requests is a 100x burn but under MinRequests=20: no verdict.
	record(s, 5, time.Second, false)
	if v := s.Verdict(); v.Degraded {
		t.Fatalf("degraded on %d requests, below MinRequests: %+v", 5, v)
	}
}

func TestSLOShortBurstAloneDoesNotDegrade(t *testing.T) {
	clk := newFakeClock()
	s := newTestSLO(clk)
	// A long stretch of healthy traffic, then a 10-request slow blip: the
	// short window burns hot but the long window stays under threshold,
	// so the conjunction holds the alarm.
	for i := 0; i < 290; i++ {
		record(s, 4, time.Millisecond, false)
		clk.advance(time.Second)
	}
	record(s, 10, time.Second, false)
	v := s.Verdict()
	if v.Degraded {
		t.Fatalf("blip degraded the verdict: latency=%+v", v.Latency)
	}
	if v.Latency.ShortBurn < 2 {
		t.Fatalf("short burn should be hot during the blip: %+v", v.Latency)
	}
}

func TestSLOInstrumentGauges(t *testing.T) {
	clk := newFakeClock()
	s := newTestSLO(clk)
	reg := NewRegistry()
	s.Instrument(reg)
	record(s, 30, time.Second, false)
	scrape := reg.Expose()
	if !strings.Contains(scrape, `bcq_slo_degraded 1`) {
		t.Fatalf("scrape missing degraded gauge:\n%s", scrape)
	}
	if !strings.Contains(scrape, `bcq_slo_burn_rate{slo="latency",window="short"}`) {
		t.Fatalf("scrape missing latency short burn:\n%s", scrape)
	}
	if !strings.Contains(scrape, `bcq_slo_burn_rate{slo="errors",window="long"}`) {
		t.Fatalf("scrape missing errors long burn:\n%s", scrape)
	}
}

func TestSLONilSafe(t *testing.T) {
	var s *SLO
	s.Record(time.Second, true)
	if v := s.Verdict(); v.Degraded {
		t.Fatal("nil SLO degraded")
	}
	s.Instrument(NewRegistry())
}
