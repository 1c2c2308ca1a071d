package main

import (
	"math"
	"testing"
)

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 0.99, true}, // 10 samples beyond p99
		{999, 0.95, true},  // 9 beyond p99: not enough
		{200, 0.95, true},
		{199, 0.90, true},
		{100, 0.90, true},
		{99, 0.80, true},
		{50, 0.80, true},
		{49, 0, false}, // not even p80 keeps ten
		{0, 0, false},
	}
	for _, c := range cases {
		got, ok := supportedTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("supportedTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minBeyond {
			t.Errorf("supportedTail(%d) = %v leaves %d beyond", c.n, got, beyond(c.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{0.5: 50, 0.95: 95, 0.99: 99, 1: 100, 0.001: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := beyond(100, 0.95); got != 5 {
		t.Errorf("beyond(100, .95) = %d, want 5", got)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v, %v", q1, q3)
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
}
