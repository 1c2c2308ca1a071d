package spark

import (
	"testing"

	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/workload"
)

func TestSparkInvertMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		n, nb, bands int
	}{
		{24, 32, 2}, // single leaf
		{48, 16, 4}, // depth 2
		{100, 13, 4},
		{64, 8, 6},
	} {
		a := workload.Random(tc.n, int64(tc.n+tc.nb))
		ctx := NewContext(4)
		iv := NewInverter(ctx, tc.nb, tc.bands)
		got, err := iv.Invert(a)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		want, err := lu.Invert(a)
		if err != nil {
			t.Fatal(err)
		}
		if d := matrix.MaxAbsDiff(got, want); d > 1e-7 {
			t.Fatalf("%+v: spark inverse differs by %g", tc, d)
		}
	}
}

func TestSparkInvertResidual(t *testing.T) {
	a := workload.Random(80, 2024)
	iv := NewInverter(NewContext(4), 20, 4)
	inv, err := iv.Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := matrix.IdentityResidual(a, inv)
	if err != nil {
		t.Fatal(err)
	}
	if res > 1e-8 {
		t.Fatalf("residual %g", res)
	}
}

func TestSparkInvertRejectsNonSquare(t *testing.T) {
	iv := NewInverter(NewContext(2), 8, 2)
	if _, err := iv.Invert(matrix.New(2, 3)); err == nil {
		t.Fatal("non-square accepted")
	}
}

func TestSparkInvertEmpty(t *testing.T) {
	iv := NewInverter(NewContext(2), 8, 2)
	inv, err := iv.Invert(matrix.New(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if inv.Rows != 0 {
		t.Fatal("not empty")
	}
}

func TestSparkInvertSingular(t *testing.T) {
	iv := NewInverter(NewContext(2), 4, 2)
	if _, err := iv.Invert(matrix.New(8, 8)); err == nil {
		t.Fatal("singular accepted")
	}
}

// TestSparkLineageRecoveryMidPipeline loses every cached partition of the
// decomposition stages between factorization and inversion; the final
// stages must transparently recompute them through lineage and still
// produce a correct inverse — the paper's Section 8 fault-tolerance
// argument for Spark.
func TestSparkLineageRecoveryMidPipeline(t *testing.T) {
	n := 72
	a := workload.Random(n, 3033)
	ctx := NewContext(4)
	iv := NewInverter(ctx, 16, 4)

	f, err := iv.decompose(driverMat(a), "A")
	if err != nil {
		t.Fatal(err)
	}
	// Force materialization once (as the driver would when broadcasting),
	// then lose everything.
	if _, err := f.assembleL(); err != nil {
		t.Fatal(err)
	}
	for _, stage := range iv.Stages {
		stage.EvictAll()
	}
	before := ctx.Recomputes()
	inv, err := iv.invertFromFactors(f)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Recomputes() <= before {
		t.Fatal("no lineage recomputation happened")
	}
	want, err := lu.Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(inv, want); d > 1e-7 {
		t.Fatalf("inverse differs by %g after recovery", d)
	}
}

// TestSparkPartialEviction loses a strict subset of partitions and checks
// that only the lost lineage is recomputed.
func TestSparkPartialEviction(t *testing.T) {
	n := 64
	a := workload.Random(n, 3034)
	ctx := NewContext(4)
	iv := NewInverter(ctx, 16, 4)
	f, err := iv.decompose(driverMat(a), "A")
	if err != nil {
		t.Fatal(err)
	}
	l0, err := f.assembleL()
	if err != nil {
		t.Fatal(err)
	}
	totalBefore := computes(ctx)
	// Evict one partition from the first stage only.
	iv.Stages[0].Evict(1)
	l1, err := f.assembleL()
	if err != nil {
		t.Fatal(err)
	}
	recomputed := computes(ctx) - totalBefore
	if recomputed == 0 {
		t.Fatal("lost partition not recomputed")
	}
	if recomputed > iv.Stages[0].numParts {
		t.Fatalf("recomputed %d partitions for a single loss", recomputed)
	}
	if !matrix.Equal(l0, l1, 0) {
		t.Fatal("factor changed after partial recovery")
	}
}

func TestSparkMemoryVsMapReduceSameAnswer(t *testing.T) {
	// The Section 8 claim "our technique would need minimal changes":
	// both engines implement the same math, so results agree to
	// round-off-free equality of algorithm structure.
	a := workload.Random(56, 3035)
	iv := NewInverter(NewContext(4), 16, 4)
	sparkInv, err := iv.Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := lu.Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(sparkInv, ref); d > 1e-7 {
		t.Fatalf("engines disagree by %g", d)
	}
}

func TestAssembleRegionErrors(t *testing.T) {
	// Missing coverage must be detected.
	recs := []Record{block{r0: 0, r1: 1, c0: 0, c1: 1, m: matrix.New(1, 1)}}
	if _, err := assembleRegion(recs, 0, 2, 0, 2); err == nil {
		t.Fatal("gap accepted")
	}
	// Wrong record type.
	if _, err := assembleRegion([]Record{42}, 0, 1, 0, 1); err == nil {
		t.Fatal("non-block accepted")
	}
}
