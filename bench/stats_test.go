package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{3.1, 1.2, 9.9, 4.4, 2.0}, 1.6, 7.15},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{50: 3, 75: 4, 90: 5, 100: 5, 1: 1} {
		if got := percentile(xs, p); !near(got, want) {
			t.Errorf("p%g = %v, want %v", p, got, want)
		}
	}
}

// A tail percentile is reported only with at least ten samples beyond it.
func TestTailPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false},
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
	} {
		p, ok := tailPercentile(c.n)
		if ok != c.ok || !near(p, c.want) {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestAmdahl(t *testing.T) {
	for _, c := range []struct {
		serial float64
		n      int
		want   float64
	}{
		{0, 2, 2},
		{0, 4, 4},
		{1, 4, 1},
		{0.5, 2, 1 / 0.75},
		{0.1, 4, 1 / (0.1 + 0.9/4)},
		{-0.2, 2, 2}, // measurement noise below zero clamps
	} {
		if got := amdahl(c.serial, c.n); !near(got, c.want) {
			t.Errorf("amdahl(%v, %d) = %v, want %v", c.serial, c.n, got, c.want)
		}
	}
}
