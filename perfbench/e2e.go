package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"bcq/internal/serve"
)

// e2eResult is what the e2e run measured and what the traced run reuses.
type e2eResult struct {
	attempted int
	metrics   map[string]metric // end-to-end metrics
	layer     map[string]metric // per-layer metrics measured in the e2e run
	samples   map[string]int
	reqs      []request
	readP50   float64 // read latency p50, µs
	dataS     []float64
	storeS    []float64
}

// schedule draws a workload's requests and arrival times for a run of
// seconds timed seconds after warm-up.
func schedule(w *workload, seed int64, seconds int, st *stack) ([]request, []time.Duration, error) {
	n := int(math.Ceil(w.rate * (warmup.Seconds() + float64(seconds))))
	reqs, err := w.gen(seed, st.base, n)
	if err != nil {
		return nil, nil, err
	}
	return reqs, arrivals(w.rate, n), nil
}

// readsPerWindow is the expected read count of one latency window: enough
// that a window's p99 has well over minBeyond samples beyond it.
const readsPerWindow = 1300

// windows splits the timed phase into equal windows, as many as the
// expected read count fills; read latency percentiles are the median of
// the windows' percentiles, so one burst of interference on a shared box
// moves one window, not the result. The count depends only on constants
// and --seconds, so every run of a workload uses the same estimator.
func windows(w *workload, seconds int) int {
	return max(1, int(w.rate*w.readShare*float64(seconds)/readsPerWindow))
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func runE2E(w *workload, seed int64, seconds int, dir string) (*e2eResult, error) {
	res := &e2eResult{samples: map[string]int{}}
	var st *stack
	var setupS []float64
	// The last set-up serves the run.
	for i := 0; i < w.setups; i++ {
		s, err := build(w, seed, filepath.Join(dir, fmt.Sprint(i)), true)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, s.setupS)
		res.dataS = append(res.dataS, s.dataS)
		res.storeS = append(res.storeS, s.storeS)
		if i < w.setups-1 {
			if err := s.close(); err != nil {
				return nil, err
			}
			continue
		}
		st = s
	}
	defer st.close()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	reqs, due, err := schedule(w, seed, seconds, st)
	if err != nil {
		return nil, err
	}
	res.reqs = reqs
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		bodies[i] = reqs[i].body()
	}

	start := time.Now().Add(10 * time.Millisecond)
	cpuWarm := make(chan float64, 1)
	time.AfterFunc(time.Until(start.Add(warmup)), func() { cpuWarm <- cpuSeconds() })
	outs := drive(st.url, runtime.NumCPU(), start, reqs, bodies, due)
	cpu := cpuSeconds() - <-cpuWarm

	// Counters first: the checks below send requests of their own.
	cache := st.srv.CacheStats()
	var stats struct {
		Server struct {
			Overloads int64 `json:"overloads"`
			Timeouts  int64 `json:"timeouts"`
		} `json:"server"`
	}
	if err := fetchStats(st.url, &stats); err != nil {
		return nil, err
	}

	nwin := windows(w, seconds)
	win := make([][]float64, nwin)
	var reads, writes, lags []float64
	var fetched, executed, readBytes float64
	timed := 0
	for i, o := range outs {
		if due[i] < warmup {
			continue
		}
		timed++
		lat := float64(o.end-o.from) / float64(time.Millisecond)
		lags = append(lags, float64(o.send-due[i])/float64(time.Millisecond))
		if reqs[i].kind == opWrite {
			writes = append(writes, lat)
			continue
		}
		reads = append(reads, lat)
		k := min(int(int64(nwin)*int64(due[i]-warmup)/int64(time.Duration(seconds)*time.Second)), nwin-1)
		win[k] = append(win[k], lat)
		readBytes += float64(o.bytes)
		if !o.cached {
			fetched += float64(o.fetched)
			executed++
		}
	}
	res.attempted = timed
	res.samples["reads"], res.samples["writes"], res.samples["ops"] = len(reads), len(writes), timed

	if err := checkOutcomes(reqs, outs); err != nil {
		return nil, err
	}
	bounds, err := planBounds(st.eng, reqs)
	if err != nil {
		return nil, err
	}
	if err := checkBounds(reqs, outs, bounds); err != nil {
		return nil, err
	}
	if err := checkWrites(reqs, func(i int) bool { return outs[i].err == "" }, st.liveCount); err != nil {
		return nil, err
	}
	db, err := st.freeze(st.eng.Access())
	if err != nil {
		return nil, err
	}
	if err := checkSample(st.url, st.eng.Catalog(), db, reqs, sampleIndexes(seed, reqs)); err != nil {
		return nil, err
	}

	var p50s, p99s []float64
	for k, xs := range win {
		p50, _ := percentile(xs, 0.50)
		p99, ok := percentile(xs, 0.99)
		if !ok {
			return nil, fmt.Errorf("window %d: %d read samples cannot support a p99: lengthen --seconds", k, len(xs))
		}
		p50s, p99s = append(p50s, p50), append(p99s, p99)
	}
	res.samples["read_windows"] = nwin
	p50, p99 := median(p50s), median(p99s)
	res.readP50 = p50 * 1000
	res.metrics = map[string]metric{
		"setup_s":          {median(setupS), "s"},
		"heap_mb":          {float64(mem.HeapAlloc) / (1 << 20), "MB"},
		"cpu_ms_per_op":    {cpu * 1000 / float64(timed), "ms"},
		"fetched_per_read": {ratio(fetched, executed), "tuples"},
	}
	res.layer = map[string]metric{
		"read_p50_ms":                   {p50, "ms"},
		"read_p99_ms":                   {p99, "ms"},
		"write_p50_ms":                  {pct(writes, 0.50), "ms"},
		"write_p99_ms":                  {pct(writes, 0.99), "ms"},
		"load.lag_p99_ms":               {pct(lags, 0.99), "ms"},
		"load.requests":                 {float64(timed), "count"},
		"serve.cache_hit_ratio":         {cacheHitRatio(cache), "ratio"},
		"serve.rejected":                {float64(stats.Server.Overloads + stats.Server.Timeouts), "count"},
		"serve.response_bytes_per_read": {ratio(readBytes, float64(len(reads))), "B"},
	}
	return res, nil
}

func cacheHitRatio(c serve.CacheStats) float64 {
	return ratio(float64(c.Hits), float64(c.Hits+c.Misses))
}
