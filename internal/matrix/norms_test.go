package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormsKnownValues(t *testing.T) {
	m := FromRows([][]float64{{1, -2}, {-3, 4}})
	if got := NormFrobenius(m); math.Abs(got-math.Sqrt(30)) > 1e-15 {
		t.Fatalf("Frobenius = %v", got)
	}
	if got := NormInf(m); got != 7 {
		t.Fatalf("Inf = %v", got)
	}
	if got := MaxAbs(m); got != 4 {
		t.Fatalf("MaxAbs = %v", got)
	}
}

func TestConditionEstimate(t *testing.T) {
	a := FromRows([][]float64{{2, 0}, {0, 0.5}})
	ainv := FromRows([][]float64{{0.5, 0}, {0, 2}})
	if got := ConditionEstimateInf(a, ainv); got != 4 {
		t.Fatalf("cond = %v", got)
	}
}

// Property: norms are absolutely homogeneous, ||sA|| = |s| ||A||.
func TestQuickNormHomogeneity(t *testing.T) {
	f := func(seed int64, sRaw int8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randDense(rng, 6, 6)
		s := float64(sRaw) / 8
		sm := Scale(s, m)
		abs := math.Abs(s)
		ok := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*(1+math.Abs(y)) }
		return ok(NormFrobenius(sm), abs*NormFrobenius(m)) &&
			ok(NormInf(sm), abs*NormInf(m))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality on the Frobenius norm.
func TestQuickTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randDense(rng, 5, 7)
		b := randDense(rng, 5, 7)
		sum, err := Add(a, b)
		if err != nil {
			return false
		}
		return NormFrobenius(sum) <= NormFrobenius(a)+NormFrobenius(b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: submultiplicativity ||AB||_F <= ||A||_F ||B||_F.
func TestQuickFrobeniusSubmultiplicative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randDense(rng, 4, 6)
		b := randDense(rng, 6, 3)
		ab, err := Mul(a, b)
		if err != nil {
			return false
		}
		return NormFrobenius(ab) <= NormFrobenius(a)*NormFrobenius(b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
