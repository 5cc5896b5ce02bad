// Command perfbench is the repository's end-to-end benchmark. It stands up
// the real serving stack in this process (generated dataset, live or
// sharded store, engine, serve.Server behind a loopback listener), drives
// one workload open-loop over HTTP from a seeded schedule, checks the
// answers, and prints its metrics; the last line of standard output is one
// JSON object with them.
//
//	bash perfbench/run.sh --workload point-rw --seed 1 --seconds 25 --trace 0
//
// --trace 1 adds a traced run: the same seeded requests replayed in
// process, one at a time, with a span around each call into a layer's
// public functions; the result line then carries the per-layer metrics.
// METRICS.md maps every metric to the layer it measures and the workload
// it serves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// outDir holds what a run leaves behind: durable store directories while
// it runs, and the span files of traced runs.
const outDir = ".bench_build/perfbench"

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: point-rw | adhoc-plan | fanout")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same data and requests")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 adds the traced run and prints per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: must be at least 1", seconds)
	}
	dir := filepath.Join(outDir, fmt.Sprintf("data-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	e2e, err := runE2E(w, seed, seconds, dir)
	if err != nil {
		return err
	}
	rep := report{Correct: true, Attempted: e2e.attempted, Failed: 0, Metrics: e2e.metrics}
	if traced {
		if rep.Metrics, err = runTraced(w, seed, e2e, filepath.Join(dir, "replay")); err != nil {
			return err
		}
	}
	// The table shows everything measured; the result line only the
	// metrics of this mode.
	table := map[string]metric{}
	for _, ms := range []map[string]metric{e2e.metrics, e2e.layer, rep.Metrics} {
		for k, v := range ms {
			table[k] = v
		}
	}
	printTable(table, e2e.samples)
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// printTable prints every metric by name and unit, then the sample counts
// behind the percentiles.
func printTable(ms map[string]metric, samples map[string]int) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	keys := make([]string, 0, len(samples))
	for k := range samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("samples %-26s %14d\n", k, samples[k])
	}
	fmt.Printf("GOMAXPROCS %d, NumCPU %d\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
}
