package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: percentile must sort
	}
	return xs
}

// TestPercentileRule checks that a percentile is reported only when at
// least ten samples lie beyond it.
func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{10000, 0.999, 9990, true},
		{0, 0.5, 0, false},
	}
	for _, c := range cases {
		v, ok := percentile(seq(c.n), c.q)
		if v != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
	if got := pct(seq(999), 0.99); got != 0 {
		t.Errorf("pct of an unsupported p99 = %g, want 0", got)
	}
}
