package main

import (
	"bytes"
	"testing"
)

// scheduleBytes renders a workload's requests and arrival times for one
// seed as bytes.
func scheduleBytes(t *testing.T, w *workload, seed int64, n int) []byte {
	t.Helper()
	base, _, err := w.data(seed)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := w.gen(seed, base, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != n {
		t.Fatalf("%s: %d requests, want %d", w.name, len(reqs), n)
	}
	var b bytes.Buffer
	for i, d := range arrivals(w.rate, n) {
		b.WriteString(d.String())
		b.Write(reqs[i].body())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestScheduleDeterministic checks that a seed fixes the request sequence
// and the arrival schedule byte for byte, and that another seed changes
// them.
func TestScheduleDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			const n = 500
			a, b := scheduleBytes(t, w, 7, n), scheduleBytes(t, w, 7, n)
			if !bytes.Equal(a, b) {
				t.Fatal("the same seed gave two different schedules")
			}
			if bytes.Equal(a, scheduleBytes(t, w, 8, n)) {
				t.Fatal("seeds 7 and 8 gave the same schedule")
			}
		})
	}
}

// TestAdhocTextsDistinct checks that no two ad-hoc requests share a query
// text, so none can hit the plan cache or the result cache.
func TestAdhocTextsDistinct(t *testing.T) {
	reqs, err := genAdhoc(3, nil, 2000)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range reqs {
		if seen[r.query] {
			t.Fatalf("query repeated: %s", r.query)
		}
		seen[r.query] = true
	}
}

// TestFanoutUsersDistinct checks that no user is read twice in a run, so
// the result cache cannot answer.
func TestFanoutUsersDistinct(t *testing.T) {
	reqs, err := genFanout(3, nil, 5000)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, r := range reqs {
		if seen[r.args[0]] {
			t.Fatalf("user %d read twice", r.args[0])
		}
		seen[r.args[0]] = true
	}
}
