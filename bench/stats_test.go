package main

import "testing"

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {30, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {147, 90}, {199, 90},
		{200, 95}, {732, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if s[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := median(s); got != 5.5 {
		t.Errorf("median of 1..10 = %g, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 1..3 = %g, want 2", got)
	}
	if percentile(nil, 90) != 0 || median(nil) != 0 || ratio(1, 0) != 0 {
		t.Error("empty inputs must read 0, never NaN")
	}
}
