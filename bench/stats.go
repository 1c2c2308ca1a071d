package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: with fewer, the number is one or two outliers.
const minBeyond = 10

// tailCandidates are the percentiles op_tail_ms may use, highest first.
var tailCandidates = []float64{0.99, 0.95, 0.90, 0.80}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile reads the nearest-rank p-quantile from sorted samples; 0 when
// there are none.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// beyond is the number of samples strictly past percentile p's rank.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// supportedTail returns the highest candidate percentile that still has
// minBeyond samples beyond it among n, and false when none does.
func supportedTail(n int) (float64, bool) {
	for _, p := range tailCandidates {
		if beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v (mean of the middle pair for even counts); 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// driver uses to judge spread. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j)*4
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of v as a share of its median: the
// run-to-run noise a bound has to clear. 0 with fewer than two values.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs(q3-q1) / math.Abs(m)
}
