package lu

import (
	"math"
	"testing"

	"repro/internal/matrix"
	"repro/internal/workload"
)

func TestGrowthFactorModestForRandom(t *testing.T) {
	// Partial pivoting keeps growth small on random inputs (~n^(2/3)).
	for _, n := range []int{16, 64, 128} {
		g, err := growthFactor(workload.Random(n, int64(n)))
		if err != nil {
			t.Fatal(err)
		}
		if g < 1 || g > 100 {
			t.Fatalf("n=%d: growth factor %g out of the expected modest range", n, g)
		}
	}
}

func TestGrowthFactorWilkinsonWorstCase(t *testing.T) {
	// The Wilkinson matrix (1 on diagonal, -1 below, 1 in last column)
	// achieves the 2^(n-1) worst case under partial pivoting.
	n := 20
	w := matrix.New(n, n)
	for i := 0; i < n; i++ {
		w.Set(i, i, 1)
		w.Set(i, n-1, 1)
		for j := 0; j < i; j++ {
			w.Set(i, j, -1)
		}
	}
	g, err := growthFactor(w)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(2, float64(n-1))
	if math.Abs(g-want)/want > 1e-9 {
		t.Fatalf("Wilkinson growth = %g, want 2^%d = %g", g, n-1, want)
	}
}

func TestBackwardErrorNearEps(t *testing.T) {
	a := workload.Random(100, 500)
	inv, err := Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	be, err := backwardError(a, inv)
	if err != nil {
		t.Fatal(err)
	}
	// Backward stability: within a few orders of magnitude of eps, far
	// below 1e-10.
	if be > 1e-12 {
		t.Fatalf("backward error %g too large", be)
	}
}

func TestHilbertConditionExplodes(t *testing.T) {
	// The Hilbert matrix's condition number grows exponentially; measured
	// residuals degrade proportionally, exactly the behaviour a stability
	// investigation must surface.
	k6, err := conditionInf(workload.Hilbert(6))
	if err != nil {
		t.Fatal(err)
	}
	k10, err := conditionInf(workload.Hilbert(10))
	if err != nil {
		t.Fatal(err)
	}
	if k6 < 1e6 || k10 < 1e12 {
		t.Fatalf("Hilbert conditions too small: k6=%g k10=%g", k6, k10)
	}
	if k10 < 1e4*k6 {
		t.Fatalf("condition growth too slow: k6=%g k10=%g", k6, k10)
	}
}

func TestResidualTracksConditionBound(t *testing.T) {
	// The measured identity residual should stay within a moderate factor
	// of the first-order bound kappa*eps for well- and mid-conditioned
	// inputs.
	for _, src := range []struct {
		name string
		m    *matrix.Dense
	}{
		{"random", workload.Random(64, 600)},
		{"diagdom", workload.DiagonallyDominant(64, 601)},
		{"hilbert6", workload.Hilbert(6)},
	} {
		inv, err := Invert(src.m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := matrix.IdentityResidual(src.m, inv)
		if err != nil {
			t.Fatal(err)
		}
		kappa, err := conditionInf(src.m)
		if err != nil {
			t.Fatal(err)
		}
		bound := forwardErrorBound(kappa)
		// Allow three orders of slack over the first-order bound.
		if res > 1e3*bound+1e-14 {
			t.Fatalf("%s: residual %g exceeds 1e3 * bound %g", src.name, res, bound)
		}
	}
}

func TestBackwardErrorShapeMismatch(t *testing.T) {
	if _, err := backwardError(matrix.New(2, 2), matrix.New(3, 3)); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestGrowthFactorZeroMatrixAndSingular(t *testing.T) {
	if _, err := growthFactor(matrix.New(3, 3)); err == nil {
		t.Fatal("singular matrix accepted")
	}
}
