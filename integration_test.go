package mrinverse

import (
	"math"
	"testing"
	"testing/quick"
)

// TestAllEnginesAgreeOnOneInput is the cross-engine integration test: the
// MapReduce pipeline, the Spark-style engine, the single-node kernel, and
// the ScaLAPACK baseline invert the same matrix and must agree to
// round-off.
func TestAllEnginesAgreeOnOneInput(t *testing.T) {
	n := 96
	a := Random(n, 41)
	ref, err := InvertLocal(a)
	if err != nil {
		t.Fatal(err)
	}

	opts := DefaultOptions(4)
	opts.NB = 24
	mr, rep, err := Invert(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.JobsRun != PipelineJobs(n, opts.NB) {
		t.Fatalf("jobs = %d", rep.JobsRun)
	}

	sp, err := InvertSpark(a, 4, 24)
	if err != nil {
		t.Fatal(err)
	}

	sl, _, err := InvertScaLAPACK(a, ScaLAPACKConfig{Procs: 4, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}

	for name, inv := range map[string]*Matrix{
		"mapreduce": mr, "spark": sp, "scalapack": sl,
	} {
		var worst float64
		for i := range ref.Data {
			if d := math.Abs(inv.Data[i] - ref.Data[i]); d > worst {
				worst = d
			}
		}
		if worst > 1e-7 {
			t.Errorf("%s differs from local reference by %g", name, worst)
		}
		if r := Residual(a, inv); r > 1e-7 {
			t.Errorf("%s residual %g", name, r)
		}
	}
}

// TestLargePipeline runs a depth-3, 1024-order inversion end to end —
// the largest configuration in the suite.
func TestLargePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	n := 1024
	a := Random(n, 42)
	opts := DefaultOptions(8)
	opts.NB = 256
	inv, rep, err := Invert(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Depth != 2 || rep.JobsRun != PipelineJobs(n, 256) {
		t.Fatalf("depth %d, jobs %d", rep.Depth, rep.JobsRun)
	}
	if r := Residual(a, inv); r > 1e-6 {
		t.Fatalf("residual %g", r)
	}
}

// TestHilbertThroughPipeline pushes an ill-conditioned input through the
// distributed pipeline: accuracy degrades with kappa exactly as the
// single-node kernel's does, no worse.
func TestHilbertThroughPipeline(t *testing.T) {
	h := NewMatrix(8, 8)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			h.Set(i, j, 1/float64(i+j+1))
		}
	}
	opts := DefaultOptions(2)
	opts.NB = 4
	mrInv, _, err := Invert(h, opts)
	if err != nil {
		t.Fatal(err)
	}
	localInv, err := InvertLocal(h)
	if err != nil {
		t.Fatal(err)
	}
	mrRes := Residual(h, mrInv)
	localRes := Residual(h, localInv)
	// Both residuals are far above machine epsilon (kappa ~ 1e10) but the
	// pipeline must stay within two orders of the local kernel.
	if mrRes > localRes*100+1e-8 {
		t.Fatalf("pipeline residual %g vs local %g", mrRes, localRes)
	}
}

// TestQuickPipelineRandomConfigs is the property-based end-to-end check:
// for random orders, node counts, and bound values, the pipeline inverse
// satisfies the Section 7.2 criterion and the job-count law.
func TestQuickPipelineRandomConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64, nRaw, nodesRaw, nbRaw uint8) bool {
		n := int(nRaw%48) + 16
		nodes := int(nodesRaw%6)*2 + 2 // 2..12
		nb := int(nbRaw%24) + 8        // 8..31
		a := DiagonallyDominant(n, seed)
		opts := DefaultOptions(nodes)
		opts.NB = nb
		inv, rep, err := Invert(a, opts)
		if err != nil {
			return false
		}
		if rep.JobsRun != PipelineJobs(n, nb) {
			return false
		}
		return Residual(a, inv) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSparkMatchesPipeline cross-checks the two engines on random
// configurations.
func TestQuickSparkMatchesPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 12
		a := DiagonallyDominant(n, seed)
		opts := DefaultOptions(4)
		opts.NB = 10
		mr, _, err := Invert(a, opts)
		if err != nil {
			return false
		}
		sp, err := InvertSpark(a, 4, 10)
		if err != nil {
			return false
		}
		for i := range mr.Data {
			if math.Abs(mr.Data[i]-sp.Data[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
