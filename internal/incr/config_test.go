package incr

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/workload"
)

func TestConfigWithDefaults(t *testing.T) {
	d := Config{Enabled: true}.WithDefaults()
	if d.KMax != DefaultKMax || d.MaxBases != DefaultMaxBases ||
		d.ResidualTol != DefaultResidualTol || d.SampleCols != DefaultSampleCols ||
		d.CondMax != DefaultCondMax {
		t.Fatalf("zero config did not pick up defaults: %+v", d)
	}
	if !d.Enabled {
		t.Fatal("WithDefaults dropped Enabled")
	}
	set := Config{KMax: 3, MaxBases: 5, ResidualTol: 1e-4, SampleCols: 2, CondMax: 1e6}
	if got := set.WithDefaults(); got != set {
		t.Fatalf("explicit config rewritten: %+v", got)
	}
}

func TestConfigEffectiveKMax(t *testing.T) {
	cases := []struct {
		kmax, n, want int
	}{
		{0, 256, DefaultKMax}, // zero KMax selects the default
		{8, 256, 8},           // explicit bound below n/4 holds
		{100, 256, 64},        // n/4 caps an over-large bound
		{8, 8, 2},             // tiny order: n/4 again
		{8, 2, 1},             // never below 1
	}
	for _, c := range cases {
		if got := (Config{KMax: c.kmax}).EffectiveKMax(c.n); got != c.want {
			t.Errorf("EffectiveKMax(kmax=%d, n=%d) = %d, want %d", c.kmax, c.n, got, c.want)
		}
	}
}

func TestUpdateValidation(t *testing.T) {
	n, k := 8, 2
	sq := matrix.Identity(n)
	u := matrix.New(n, k)
	v := matrix.New(n, k)
	if _, err := Update(nil, u, v, 0); err == nil {
		t.Fatal("nil A⁻¹ accepted")
	}
	if _, err := Update(matrix.New(n, n+1), u, v, 0); err == nil {
		t.Fatal("rectangular A⁻¹ accepted")
	}
	if _, err := Update(sq, matrix.New(n+1, k), v, 0); err == nil {
		t.Fatal("mis-shaped U accepted")
	}
	if _, err := Update(sq, u, matrix.New(n, k+1), 0); err == nil {
		t.Fatal("U/V rank mismatch accepted")
	}
	// Rank zero is the identity update: a fresh copy of A⁻¹.
	out, err := Update(sq, matrix.New(n, 0), matrix.New(n, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(out, sq); d != 0 {
		t.Fatalf("rank-0 update changed A⁻¹ by %g", d)
	}
	if out == sq {
		t.Fatal("rank-0 update aliased its input")
	}
}

func TestBaseIndexDefaultsAndGuards(t *testing.T) {
	ix := NewBaseIndex(0)
	if ix.max != DefaultMaxBases {
		t.Fatalf("NewBaseIndex(0) max = %d, want DefaultMaxBases", ix.max)
	}
	a := workload.DiagonallyDominant(8, 1)
	ix.Add("nil-inv", a, nil)
	ix.Add("nil-a", nil, a)
	ix.Add("rect", matrix.New(4, 6), matrix.New(4, 6))
	if ix.Len() != 0 {
		t.Fatalf("guarded Adds indexed %d entries", ix.Len())
	}
	// Re-adding a digest refreshes the entry instead of duplicating it.
	inv := matrix.Identity(8)
	ix.Add("k", a, inv)
	ix.Add("k", a, inv)
	if ix.Len() != 1 {
		t.Fatalf("re-add duplicated: len %d", ix.Len())
	}
}
