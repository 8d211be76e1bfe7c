package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles are the first and third quartile of xs by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4) — the rule the
// benchmark's acceptance spread is computed with — including its linear
// extrapolation for two-point samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	ld := len(s)
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// spread is the distance between the first and third quartile as a share
// of the median: the run-to-run noise measure BENCHMARK.json bounds are
// checked against.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 { //lint:ignore floateq an exact zero median is the degenerate case, not arithmetic
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}

// tailPercentiles are the percentiles a tail timing may be reported at,
// highest first.
var tailPercentiles = []float64{99, 90, 75, 50}

// tailPercentile picks the highest percentile that still has at least
// ten samples beyond it — the highest tail a sample of n can report
// honestly. ok is false when even the median lacks ten samples beyond.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		beyond := float64(n) * (100 - p) / 100
		if beyond >= 10 {
			return p, true
		}
	}
	return 0, false
}

// percentile is the nearest-rank p-th percentile of xs (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// amdahl is the speed-up ceiling of n workers on work whose serial share
// is serial: 1 / (serial + (1-serial)/n).
func amdahl(serial float64, n int) float64 {
	serial = math.Min(math.Max(serial, 0), 1)
	return 1 / (serial + (1-serial)/float64(n))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never exercised).
func ratio(a, b float64) float64 {
	if b == 0 { //lint:ignore floateq guards a division by an exact zero count
		return 0
	}
	return a / b
}
