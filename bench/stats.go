package main

import (
	"math"
	"sort"
	"time"
)

// percentile reads the p-th percentile (0 < p ≤ 100) off an ascending
// sample by nearest rank: the smallest value with at least p% of the
// sample at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailLevels are the tail percentiles a report may quote, ascending.
var tailLevels = []float64{90, 99, 99.9, 99.99}

// highestPercentile returns the highest tail level that still has at
// least ten samples beyond it in a sample of n — the highest percentile
// the sample supports. It is 50 (the median alone) when not even p90
// qualifies.
func highestPercentile(n int) float64 {
	best := 50.0
	for _, p := range tailLevels {
		if float64(n)*(100-p) >= 1000-1e-6 { // n(100-p)/100 ≥ 10, safe against 100-99.9 ≠ 0.1
			best = p
		}
	}
	return best
}

// slicedTail cuts the window into as many equal slices as are each at
// least slice long (one slice if slice is 0 or the window is shorter),
// reads the p-th percentile off the latencies of the requests scheduled
// in each slice, and returns the median of those in milliseconds, with
// the number of slices and the size of the smallest slice's sample.
func slicedTail(samples []sample, window, slice time.Duration, p float64) (tailMs float64, slices, fewest int) {
	slices = 1
	if slice > 0 && window >= slice {
		slices = int(window / slice)
	}
	lat := make([][]float64, slices)
	for _, s := range samples {
		i := int(s.at * int64(slices) / int64(window))
		i = max(0, min(i, slices-1))
		lat[i] = append(lat[i], float64(s.lat)/1e6)
	}
	tails := make([]float64, slices)
	fewest = len(samples)
	for i, l := range lat {
		sort.Float64s(l)
		tails[i] = percentile(l, p)
		fewest = min(fewest, len(l))
	}
	return median(tails), slices, fewest
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method: position
// i(n+1)/4, linearly interpolated), because that is how the acceptance
// check computes a spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}
