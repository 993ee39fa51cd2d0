package main

import (
	"math"
	"testing"
)

// TestHistQuantiles checks quantiles against exact order statistics: the
// bucket width bounds the error at 1/histSub of the value.
func TestHistQuantiles(t *testing.T) {
	var h hist
	const n = 200000
	for v := int64(1); v <= n; v++ {
		h.add(v * 37) // 37 ns .. 7.4 ms
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		want := math.Ceil(q*n) * 37
		if got := h.quantile(q); math.Abs(got-want) > want/histSub {
			t.Errorf("q%.3f = %.0f, want %.0f within 1/%d", q, got, want, histSub)
		}
	}
	if got, want := h.beyond(0.99), uint64(n/100); got != want {
		t.Errorf("beyond(0.99) = %d, want %d", got, want)
	}
}

// TestHistMergeReset checks that merging keeps exact counts and that a
// failure recorded at histMax sits above every latency.
func TestHistMergeReset(t *testing.T) {
	var a, b hist
	for v := int64(0); v < 1000; v++ {
		a.add(v)
		b.add(v * 1000)
	}
	b.add(histMax)
	a.merge(&b)
	if a.n != 2001 {
		t.Fatalf("merged n = %d, want 2001", a.n)
	}
	if got := a.quantile(1); got < float64(histMax)/2 {
		t.Errorf("max quantile %.0f is below the recorded failure", got)
	}
	a.reset()
	if a.n != 0 || !math.IsNaN(a.quantile(0.5)) {
		t.Errorf("reset left n = %d", a.n)
	}
	a.add(5)
	if got := a.quantile(0.5); got < 5 || got > 6 {
		t.Errorf("after reset, p50 of {5} = %v", got)
	}
}
