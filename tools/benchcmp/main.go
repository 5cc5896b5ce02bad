// Command benchcmp compares a benchmark-emit JSON file (BENCH_obs.json,
// BENCH_streaming.json, BENCH_storage.json, BENCH_planner.json) against
// a committed baseline and fails when a lower-is-better measurement
// regressed past the threshold. CI runs it after the bench-emit tests so
// a performance regression fails the build like a broken test.
//
// Usage:
//
//	benchcmp -baseline bench/BENCH_obs.json -current BENCH_obs.json
//	benchcmp -baseline old.json -current new.json -threshold 0.5
//
// Both files are flattened to dotted numeric paths (arrays index as
// rows[0], rows[1], …). A path counts as lower-is-better by suffix —
// _ns/_us/_ms (time), _bytes (allocation), _pct (overhead) — everything
// else is informational. A regression must clear BOTH the relative
// threshold (default +25%) and the suffix's absolute floor, so noise on
// near-zero measurements (a 30ns alloc path, a 0.1% overhead) never
// fails the build. Paths present only in one file are reported but not
// fatal: emit formats may grow fields.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	baseline := flag.String("baseline", "", "committed baseline JSON")
	current := flag.String("current", "", "freshly emitted JSON")
	threshold := flag.Float64("threshold", 0.25, "relative regression that fails (0.25 = +25%)")
	flag.Parse()
	if *baseline == "" || *current == "" {
		fmt.Fprintln(os.Stderr, "benchcmp: -baseline and -current are required")
		os.Exit(2)
	}
	base, err := loadFlat(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	cur, err := loadFlat(*current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	report := compare(base, cur, *threshold)
	fmt.Print(report.String())
	if len(report.Regressions) > 0 {
		os.Exit(1)
	}
}

// floors maps a lower-is-better suffix to the absolute increase a
// regression must also exceed. Units differ per suffix, so each gets
// its own noise floor.
var floors = []struct {
	suffix string
	floor  float64
}{
	{"_ns", 50_000},  // 50µs of wall time
	{"_us", 50},      // same floor, microsecond-denominated
	{"_ms", 1},       // 1ms
	{"_bytes", 4096}, // one page of allocation
	{"_pct", 5},      // five points — overhead percentages swing with scheduler noise
}

// lowerIsBetter reports whether the path's last segment carries a
// regression-checked suffix, and its absolute floor.
func lowerIsBetter(path string) (float64, bool) {
	last := path
	if i := strings.LastIndex(path, "."); i >= 0 {
		last = path[i+1:]
	}
	for _, f := range floors {
		if strings.HasSuffix(last, f.suffix) {
			return f.floor, true
		}
	}
	return 0, false
}

// regression is one measurement that got worse past threshold + floor.
type regression struct {
	Path     string
	Base     float64
	Current  float64
	Relative float64 // (current-base)/base, +0.30 = 30% slower
}

// reportData is everything compare found, renderable and testable.
type reportData struct {
	Checked     int
	Regressions []regression
	Improved    []string
	Missing     []string // in baseline, absent in current
	Added       []string // in current, absent in baseline
}

func (r reportData) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "benchcmp: %d lower-is-better measurements checked\n", r.Checked)
	for _, reg := range r.Regressions {
		fmt.Fprintf(&b, "  REGRESSION %s: %.0f -> %.0f (%+.1f%%)\n",
			reg.Path, reg.Base, reg.Current, reg.Relative*100)
	}
	for _, p := range r.Improved {
		fmt.Fprintf(&b, "  improved   %s\n", p)
	}
	for _, p := range r.Missing {
		fmt.Fprintf(&b, "  note: baseline path %s missing from current emit\n", p)
	}
	for _, p := range r.Added {
		fmt.Fprintf(&b, "  note: new path %s not in baseline (commit a refreshed baseline to track it)\n", p)
	}
	if len(r.Regressions) == 0 {
		b.WriteString("  ok: no measurement regressed past threshold\n")
	}
	return b.String()
}

// compare walks the baseline's lower-is-better paths and flags those
// whose current value exceeds the relative threshold AND the absolute
// floor.
func compare(base, cur map[string]float64, threshold float64) reportData {
	var r reportData
	for _, path := range sortedKeys(base) {
		floor, checked := lowerIsBetter(path)
		if !checked {
			continue
		}
		cv, ok := cur[path]
		if !ok {
			r.Missing = append(r.Missing, path)
			continue
		}
		r.Checked++
		bv := base[path]
		diff := cv - bv
		if bv > 0 && diff > floor && diff/bv > threshold {
			r.Regressions = append(r.Regressions, regression{
				Path: path, Base: bv, Current: cv, Relative: diff / bv,
			})
		} else if bv > 0 && -diff > floor && -diff/bv > threshold {
			r.Improved = append(r.Improved, path)
		}
	}
	for _, path := range sortedKeys(cur) {
		if _, checked := lowerIsBetter(path); !checked {
			continue
		}
		if _, ok := base[path]; !ok {
			r.Added = append(r.Added, path)
		}
	}
	return r
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// loadFlat reads a JSON file and flattens every number to a dotted
// path.
func loadFlat(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	flatten("", v, out)
	return out, nil
}

func flatten(prefix string, v any, out map[string]float64) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flatten(p, child, out)
		}
	case []any:
		for i, child := range x {
			flatten(fmt.Sprintf("%s[%d]", prefix, i), child, out)
		}
	case float64:
		out[prefix] = x
	}
}
