package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric label pair. Series of a family are keyed by their
// label values in the family's declared label order.
type Label struct {
	Name, Value string
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is idempotent: asking for the same
// (name, label values) again returns the existing instrument, so layers
// can re-derive their handles freely. A nil *Registry hands out nil
// instruments, whose methods are all no-ops — the disabled mode.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// metricKind is the Prometheus TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// family is one metric name: its metadata plus every labeled series.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64 // histograms only

	mu     sync.Mutex
	series map[string]*series
}

// series is one labeled instrument of a family. Exactly one of the
// instrument fields is non-nil, matching the family kind.
type series struct {
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	fn     func() float64 // CounterFunc / GaugeFunc
}

// seriesKey renders the label values in declared order — the map key.
func seriesKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + "\x00" + l.Value
	}
	return strings.Join(parts, "\x01")
}

// fam returns (creating if needed) the named family. Re-registration
// with a different kind is a programming error worth failing loudly on.
func (r *Registry) fam(name, help string, kind metricKind, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, buckets: buckets, series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

// ser returns (creating if needed) the labeled series of a family.
func (f *family) ser(labels []Label) *series {
	key := seriesKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...)}
		switch f.kind {
		case kindCounter:
			s.ctr = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			s.hist = newHistogram(f.buckets)
		}
		f.series[key] = s
	}
	return s
}

// Counter registers (or retrieves) a monotone counter. Nil registry →
// nil counter, whose methods no-op.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.fam(name, help, kindCounter, nil).ser(labels).ctr
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for layers that already keep atomic counters of
// their own (engine stats, ingest stats). fn must be safe to call from
// any goroutine and monotone. No-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	s := r.fam(name, help, kindCounter, nil).ser(labels)
	s.ctr, s.fn = nil, fn
}

// Gauge registers (or retrieves) a gauge. Nil registry → nil gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.fam(name, help, kindGauge, nil).ser(labels).gauge
}

// GaugeFunc registers a gauge read from fn at scrape time. fn must be
// safe to call from any goroutine and cheap — scrapes are concurrent
// with serving. No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	s := r.fam(name, help, kindGauge, nil).ser(labels)
	s.gauge, s.fn = nil, fn
}

// Histogram registers (or retrieves) a fixed-bucket histogram. buckets
// are the inclusive upper bounds of each bucket, strictly increasing; an
// implicit +Inf bucket is appended. Nil registry → nil histogram. All
// series of one family share the family's bucket layout (the first
// registration's buckets win).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.fam(name, help, kindHistogram, buckets).ser(labels).hist
}

// Counter is a monotone atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. No-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n < 0 is ignored — counters are monotone). No-op on nil.
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value reads the counter (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 gauge.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with atomic bucket counters: an
// observation lands in the first bucket whose upper bound is ≥ the
// value (Prometheus "le" semantics). Observations, sums and counts are
// all lock-free; quantile extraction interpolates linearly within the
// winning bucket, which is exact enough for p50/p95/p99 dashboards when
// the bucket layout brackets the expected range.
type Histogram struct {
	bounds []float64      // upper bounds, strictly increasing; +Inf implicit
	counts []atomic.Int64 // len(bounds)+1: the last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// LatencyBuckets is the default latency layout (seconds): 50µs … 10s,
// roughly log-spaced — wide enough for cold prepares, fine enough that
// p99 of a bounded fetch is meaningful.
var LatencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets is the default size/count layout: 1 … 100k, for batch
// sizes, tuples fetched per query and similar distributions.
var SizeBuckets = []float64{
	1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 100000,
}

// Observe records one value. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket with bound ≥ v (binary search: bounds are sorted).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile extracts the q-quantile (0 < q ≤ 1) from the bucket counts:
// the bucket holding the target rank, linearly interpolated between its
// bounds. Returns 0 with no observations; observations beyond the last
// finite bound report that bound (the histogram cannot see further).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return QuantileFromCounts(h.bounds, h.BucketCounts(), q)
}

// QuantileFromCounts is Quantile over an explicit bucket layout: counts
// holds one entry per bound plus the +Inf bucket. It is how delta-window
// quantiles are extracted — subtract two cumulative snapshots of one
// histogram's BucketCounts and ask for the quantile of the difference —
// and how several same-layout histograms merge (sum their counts first).
func QuantileFromCounts(bounds []float64, counts []int64, q float64) float64 {
	if len(bounds) == 0 || len(counts) != len(bounds)+1 {
		return 0
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(bounds) { // +Inf bucket
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return bounds[len(bounds)-1]
}

// BucketCounts returns the per-bucket observation counts (not
// cumulative): one entry per bound plus the trailing +Inf bucket. Nil
// histograms return nil.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}
