package main

import (
	"testing"
	"time"
)

// TestSelfTimeOverlappingChildren checks that overlapping children are
// subtracted once and that a child running past its parent is clipped.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "request", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 40 * ms},
		{name: "b", parent: 0, start: 30 * ms, end: 60 * ms},
		{name: "c", parent: 0, start: 90 * ms, end: 120 * ms},
		{name: "d", parent: 2, start: 35 * ms, end: 45 * ms},
	}
	got := selfTimes(spans)
	// Children cover [10,60] and [90,100]: 60 ms of the root's 100.
	want := []time.Duration{40 * ms, 30 * ms, 20 * ms, 30 * ms, 10 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
}
