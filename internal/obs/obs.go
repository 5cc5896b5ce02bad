// Package obs is the unified observability layer: a dependency-free
// metrics registry with Prometheus text exposition, per-query span
// tracing, and a sampling slow-query log. Every other layer — engine,
// exec, live, shard, serve — hangs its instrumentation off these three
// primitives, so one /metrics scrape and one trace render cover the
// whole pipeline.
//
// Two bounded retention primitives sit on top: TraceRecorder keeps the
// complete span trees of slow, errored or outlier requests for
// /debug/traces, and SLO turns request outcomes into the burn-rate
// verdict /healthz reports. The package keeps no metric history: the
// registry holds current values only, and rates and quantiles over time
// are the scraper's job (rate() and histogram_quantile() over /metrics),
// so they cost the process nothing.
//
// The package deliberately imports nothing but the standard library:
// plan, exec, engine and serve all import it, so it must sit below every
// other internal package in the dependency order.
//
// Overhead contract: every instrument is nil-safe. A nil *Counter,
// *Gauge, *Histogram, *Trace, *Span or *SlowLog turns each method into a
// no-op, so instrumentation call sites never branch on "is observability
// enabled" — they hold nil handles when it is not, and the hot path pays
// one nil check per event. TestObsOverhead (repo root) pins the
// end-to-end cost of the enabled path at ≤ 5% of query latency.
//
// The paper's bounded-evaluation claim is that a plan fetches a small,
// predictable amount of data regardless of |D|. The per-step fetch/verify
// spans and the estimate-vs-actual slow-log entries are how that claim is
// audited continuously in production rather than only in benchmarks.
package obs

// Observer bundles the observability handles one serving layer threads
// through its request path. A nil Observer (or nil fields) disables the
// corresponding instrumentation.
type Observer struct {
	// Metrics is the registry /metrics scrapes.
	Metrics *Registry
	// SlowLog, when non-nil, records sampled slow queries as JSON lines.
	SlowLog *SlowLog
	// Traces, when non-nil, tail-samples span trees for /debug/traces.
	Traces *TraceRecorder
	// SLO, when non-nil, evaluates burn-rate health for /healthz.
	SLO *SLO
}

// Reg returns the observer's registry, nil-safely.
func (o *Observer) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// Slow returns the observer's slow-query log, nil-safely.
func (o *Observer) Slow() *SlowLog {
	if o == nil {
		return nil
	}
	return o.SlowLog
}

// TraceRec returns the observer's trace recorder, nil-safely.
func (o *Observer) TraceRec() *TraceRecorder {
	if o == nil {
		return nil
	}
	return o.Traces
}

// SLOMonitor returns the observer's SLO monitor, nil-safely.
func (o *Observer) SLOMonitor() *SLO {
	if o == nil {
		return nil
	}
	return o.SLO
}
