package lu

import (
	"math"
	"testing"

	"repro/internal/matrix"
	"repro/internal/workload"
)

func TestRefineInverseImprovesPerturbedInverse(t *testing.T) {
	n := 40
	a := workload.DiagonallyDominant(n, 701)
	exact, err := Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the inverse enough to be visible but keep ||I - AX|| < 1.
	noisy := exact.Clone()
	noisy.Apply(func(i, j int, v float64) float64 {
		return v * (1 + 1e-4*math.Sin(float64(i*n+j)))
	})
	before, err := matrix.IdentityResidual(a, noisy)
	if err != nil {
		t.Fatal(err)
	}
	refined, after, err := RefineInverse(a, noisy, 5)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before/100 {
		t.Fatalf("refinement too weak: %g -> %g", before, after)
	}
	if d := matrix.MaxAbsDiff(refined, exact); d > 1e-8 {
		t.Fatalf("refined inverse differs from exact by %g", d)
	}
}

func TestRefineInverseIdempotentAtMachinePrecision(t *testing.T) {
	a := workload.DiagonallyDominant(24, 702)
	inv, err := Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	refined, res, err := RefineInverse(a, inv, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res > 1e-13 {
		t.Fatalf("residual %g", res)
	}
	if d := matrix.MaxAbsDiff(refined, inv); d > 1e-12 {
		t.Fatalf("refinement moved a converged inverse by %g", d)
	}
}

func TestRefineInverseShapeErrors(t *testing.T) {
	if _, _, err := RefineInverse(matrix.New(2, 3), matrix.New(2, 2), 1); err == nil {
		t.Fatal("non-square accepted")
	}
	if _, _, err := RefineInverse(matrix.New(2, 2), matrix.New(3, 3), 1); err == nil {
		t.Fatal("mismatched orders accepted")
	}
}
