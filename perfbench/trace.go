package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call in the traced run: a request's root span, or a
// call into one layer's public function made on that request's behalf.
type span struct {
	req    int    // request index in the seeded sequence
	name   string // "request", or the called function, e.g. "engine.Prepare"
	parent int    // index of the parent span in the tracer, -1 for a root
	start  time.Duration
	end    time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end.
func (t *tracer) begin(req, parent int, name string) int {
	t.spans = append(t.spans, span{req: req, name: name, parent: parent, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].end = time.Since(t.t0) }

// durations returns the durations in microseconds of the spans named name
// for which keep (nil keeps all) returns true.
func (t *tracer) durations(name string, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name && (keep == nil || keep(s)) {
			out = append(out, float64(s.dur())/float64(time.Microsecond))
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children are counted
// once, and a child running past its parent is clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB time.Duration
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		out[i] = s.dur() - covered
	}
	return out
}

// write saves the spans as tab-separated lines: request id, name, start
// and end in nanoseconds from the run's start, parent span index (-1 for
// roots) and self time in nanoseconds.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req\tname\tstart_ns\tend_ns\tparent\tself_ns")
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", s.req, s.name, s.start, s.end, s.parent, self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
