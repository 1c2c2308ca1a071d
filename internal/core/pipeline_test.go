package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/dfs"
	"repro/internal/lu"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// invertOnce runs the full pipeline and checks the Section 7.2 acceptance
// criterion.
func invertOnce(t *testing.T, n int, opts Options, seed int64) (*matrix.Dense, *Report) {
	t.Helper()
	a := workload.Random(n, seed)
	p, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	inv, rep, err := p.Invert(a)
	if err != nil {
		t.Fatalf("n=%d opts=%+v: %v", n, opts, err)
	}
	res, err := matrix.IdentityResidual(a, inv)
	if err != nil {
		t.Fatal(err)
	}
	if res > 1e-7 {
		t.Fatalf("n=%d: residual %g exceeds bound", n, res)
	}
	return inv, rep
}

func TestInvertEndToEndDepths(t *testing.T) {
	// Sweep depths 0..3 by shrinking nb relative to n.
	cases := []struct {
		n, nb, nodes int
	}{
		{48, 64, 2},  // depth 0: partition + master LU + invert
		{48, 32, 4},  // depth 1
		{96, 32, 4},  // depth 2
		{100, 13, 6}, // depth 3, odd sizes
		{64, 8, 8},   // depth 3, power of two
	}
	for _, c := range cases {
		opts := DefaultOptions(c.nodes)
		opts.NB = c.nb
		_, rep := invertOnce(t, c.n, opts, int64(c.n*c.nb))
		if rep.JobsRun != rep.ExpectedJobs {
			t.Errorf("n=%d nb=%d: ran %d jobs, expected %d", c.n, c.nb, rep.JobsRun, rep.ExpectedJobs)
		}
		if rep.Depth != Depth(c.n, c.nb) {
			t.Errorf("depth mismatch: %d vs %d", rep.Depth, Depth(c.n, c.nb))
		}
	}
}

func TestInvertMatchesSingleNode(t *testing.T) {
	n := 80
	a := workload.Random(n, 901)
	opts := DefaultOptions(4)
	opts.NB = 16
	p, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := p.Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lu.Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(got, want); d > 1e-7 {
		t.Fatalf("pipeline and single-node inverses differ by %g", d)
	}
}

func TestInvertTridiagonalClosedForm(t *testing.T) {
	n := 60
	a := workload.Tridiagonal(n)
	opts := DefaultOptions(4)
	opts.NB = 16
	p, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	inv, _, err := p.Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(inv, workload.TridiagonalInverse(n)); d > 1e-8 {
		t.Fatalf("closed-form mismatch %g", d)
	}
}

func TestInvertAllOptimizationCombos(t *testing.T) {
	// Correctness must be independent of the Section 6 optimizations.
	n := 72
	a := workload.Random(n, 903)
	want, err := lu.Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	for mask := 0; mask < 8; mask++ {
		opts := DefaultOptions(4)
		opts.NB = 20
		opts.SeparateFiles = mask&1 != 0
		opts.BlockWrap = mask&2 != 0
		opts.TransposeU = mask&4 != 0
		p, err := NewPipeline(opts)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := p.Invert(a)
		if err != nil {
			t.Fatalf("mask=%d: %v", mask, err)
		}
		if d := matrix.MaxAbsDiff(got, want); d > 1e-7 {
			t.Fatalf("mask=%d: differs from reference by %g", mask, d)
		}
	}
}

func TestInvertVariousNodeCounts(t *testing.T) {
	n := 64
	a := workload.Random(n, 904)
	want, err := lu.Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{2, 4, 6, 8, 12} {
		opts := DefaultOptions(nodes)
		opts.NB = 24
		p, err := NewPipeline(opts)
		if err != nil {
			t.Fatal(err)
		}
		got, rep, err := p.Invert(a)
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if d := matrix.MaxAbsDiff(got, want); d > 1e-7 {
			t.Fatalf("nodes=%d: differs by %g", nodes, d)
		}
		f1, f2 := FactorPair(nodes)
		if rep.F1 != f1 || rep.F2 != f2 {
			t.Fatalf("nodes=%d: grid %dx%d, want %dx%d", nodes, rep.F1, rep.F2, f1, f2)
		}
	}
}

func TestDecomposeReconstructsPA(t *testing.T) {
	n := 72
	a := workload.Random(n, 905)
	opts := DefaultOptions(4)
	opts.NB = 20
	p, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	perm, l, u, err := p.Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	if !perm.IsValid() {
		t.Fatal("invalid permutation")
	}
	// L unit lower, U upper.
	for i := 0; i < n; i++ {
		if l.At(i, i) != 1 {
			t.Fatalf("L[%d][%d] = %v", i, i, l.At(i, i))
		}
		for j := i + 1; j < n; j++ {
			if l.At(i, j) != 0 {
				t.Fatalf("L upper junk at (%d,%d)", i, j)
			}
			if u.At(j, i) != 0 {
				t.Fatalf("U lower junk at (%d,%d)", j, i)
			}
		}
	}
	prod, err := matrix.Mul(l, u)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(prod, perm.ApplyRows(a)); d > 1e-8 {
		t.Fatalf("LU != PA by %g", d)
	}
}

func TestSeparateFileCountMatchesFormula(t *testing.T) {
	// With SeparateFiles on, the handle must reference exactly
	// N(d) = 2^d + (m0/2)(2^d - 1) files per factor.
	for _, c := range []struct{ n, nb, nodes int }{
		{64, 64, 4},  // d=0
		{64, 32, 4},  // d=1
		{64, 16, 4},  // d=2
		{64, 16, 8},  // d=2, more nodes
		{128, 16, 6}, // d=3
	} {
		opts := DefaultOptions(c.nodes)
		opts.NB = c.nb
		_, rep := invertOnce(t, c.n, opts, int64(c.n+c.nodes))
		want := separateFileCount(Depth(c.n, c.nb), opts.Nodes)
		if rep.LFactorFiles != want {
			t.Errorf("n=%d nb=%d m0=%d: %d factor files, want N(d)=%d", c.n, c.nb, c.nodes, rep.LFactorFiles, want)
		}
	}
}

func TestCombinedFilesWhenOptimizationOff(t *testing.T) {
	opts := DefaultOptions(4)
	opts.NB = 16
	opts.SeparateFiles = false
	_, rep := invertOnce(t, 64, opts, 906)
	if rep.LFactorFiles != 1 {
		t.Fatalf("combined run has %d factor files, want 1", rep.LFactorFiles)
	}
	if rep.MasterCombines != luJobs(Depth(64, 16)) {
		t.Fatalf("MasterCombines = %d, want %d", rep.MasterCombines, luJobs(Depth(64, 16)))
	}
}

func TestUnoptimizedDoesMoreIO(t *testing.T) {
	n := 96
	run := func(sep bool) dfs.Stats {
		opts := DefaultOptions(4)
		opts.NB = 16
		opts.SeparateFiles = sep
		_, rep := invertOnce(t, n, opts, 907)
		return rep.FS
	}
	with := run(true)
	without := run(false)
	if without.BytesWritten <= with.BytesWritten {
		t.Fatalf("combining should write more: %d vs %d", without.BytesWritten, with.BytesWritten)
	}
}

func TestBlockWrapReadsLess(t *testing.T) {
	// With enough nodes the block-wrap reducers read measurably less than
	// the naive row-band reducers (Section 6.2).
	n := 128
	run := func(bw bool) int64 {
		opts := DefaultOptions(16)
		opts.NB = 64
		opts.BlockWrap = bw
		_, rep := invertOnce(t, n, opts, 908)
		return rep.FS.BytesRead
	}
	wrapped := run(true)
	naive := run(false)
	if wrapped >= naive {
		t.Fatalf("block wrap should read less: %d vs %d", wrapped, naive)
	}
}

func TestFailureRecoveryDuringPipeline(t *testing.T) {
	// Kill the first attempt of assorted tasks across all jobs; the
	// pipeline must still produce a correct inverse (the Section 7.4
	// failure-recovery behaviour).
	n := 64
	a := workload.Random(n, 909)
	opts := DefaultOptions(4)
	opts.NB = 16
	fs := dfs.New(opts.Nodes, dfs.DefaultReplication)
	cl := mapreduce.NewCluster(fs, opts.Nodes)
	var mu sync.Mutex
	killed := map[string]bool{}
	cl.InjectFailure = func(job string, taskID, attempt int, isMap bool) error {
		mu.Lock()
		defer mu.Unlock()
		key := fmt.Sprintf("%s/%d/%v", job, taskID, isMap)
		if attempt == 0 && taskID%2 == 0 && !killed[key] {
			killed[key] = true
			return errors.New("injected crash")
		}
		return nil
	}
	p, err := NewPipelineOn(opts, fs, cl)
	if err != nil {
		t.Fatal(err)
	}
	inv, rep, err := p.Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TaskFailures == 0 {
		t.Fatal("no failures recorded; injector did not fire")
	}
	res, err := matrix.IdentityResidual(a, inv)
	if err != nil {
		t.Fatal(err)
	}
	if res > 1e-7 {
		t.Fatalf("residual %g after failure recovery", res)
	}
}

func TestInvertRejectsNonSquare(t *testing.T) {
	p, err := NewPipeline(DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Invert(matrix.New(3, 4)); err == nil {
		t.Fatal("non-square accepted")
	}
	if _, _, _, err := p.Decompose(matrix.New(3, 4)); err == nil {
		t.Fatal("non-square accepted by Decompose")
	}
}

func TestInvertSingularFails(t *testing.T) {
	p, err := NewPipeline(DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Invert(matrix.New(8, 8)); err == nil {
		t.Fatal("singular matrix accepted")
	}
}

func TestInvertEmptyMatrix(t *testing.T) {
	p, err := NewPipeline(DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	inv, _, err := p.Invert(matrix.New(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if inv.Rows != 0 {
		t.Fatal("empty inverse not empty")
	}
}

func TestSingleFileNeverWrittenTwice(t *testing.T) {
	// Section 5.2: "no two mappers write data into the same file". Verify
	// every intermediate file was written exactly once.
	opts := DefaultOptions(4)
	opts.NB = 16
	a := workload.Random(64, 910)
	p, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Invert(a); err != nil {
		t.Fatal(err)
	}
	for _, path := range p.FS.List("") {
		wc, err := p.FS.WriteCount(path)
		if err != nil {
			t.Fatal(err)
		}
		if wc != 1 {
			t.Errorf("%s written %d times", path, wc)
		}
	}
}

func TestDirectoryLayoutMatchesFigure4(t *testing.T) {
	opts := DefaultOptions(4)
	opts.NB = 16
	a := workload.Random(64, 911)
	p, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Invert(a); err != nil {
		t.Fatal(err)
	}
	// Expect the Figure 4 shape: Root/MapInput, Root/A1/..., A2, A3, A4,
	// L2, U2, OUT at each internal level.
	mustHave := []string{
		"Root/MapInput/A.0",
		"Root/A2/", "Root/A3/", "Root/A4/",
		"Root/L2/L.0", "Root/U2/U.0", "Root/OUT/A.0",
		"Root/A1/A2/", "Root/A1/L2/", "Root/A1/OUT/",
		"Root/p.bin",
	}
	all := strings.Join(p.FS.List(""), "\n") + "\n"
	for _, frag := range mustHave {
		if !strings.Contains(all, frag) {
			t.Errorf("layout missing %q", frag)
		}
	}
}

func TestTextInputFormat(t *testing.T) {
	// The paper's inputs are text ("a.txt", Table 3's 2.5x size penalty);
	// the pipeline must produce identical results and visibly larger
	// partition-phase reads.
	n := 64
	a := workload.Random(n, 1203)
	run := func(text bool) (*matrix.Dense, int64) {
		opts := DefaultOptions(4)
		opts.NB = 16
		opts.TextInput = text
		p, err := NewPipeline(opts)
		if err != nil {
			t.Fatal(err)
		}
		inv, rep, err := p.Invert(a)
		if err != nil {
			t.Fatal(err)
		}
		return inv, rep.FS.BytesRead
	}
	binInv, binRead := run(false)
	txtInv, txtRead := run(true)
	if d := matrix.MaxAbsDiff(binInv, txtInv); d > 1e-9 {
		t.Fatalf("text and binary inputs give different inverses (%g)", d)
	}
	if txtRead <= binRead {
		t.Fatalf("text input should read more: %d vs %d", txtRead, binRead)
	}
}

func TestDeepRecursion(t *testing.T) {
	// nb = 4 with n = 128 gives depth 5: 31 LU jobs + partition + invert,
	// the same pipeline length as the paper's M4 run (33 jobs).
	opts := DefaultOptions(4)
	opts.NB = 4
	_, rep := invertOnce(t, 128, opts, 1201)
	if rep.Depth != 5 {
		t.Fatalf("depth = %d", rep.Depth)
	}
	if rep.JobsRun != 33 {
		t.Fatalf("jobs = %d, want 33 (M4's pipeline length)", rep.JobsRun)
	}
	if rep.MasterLUs != 32 {
		t.Fatalf("leaf decompositions = %d, want 32", rep.MasterLUs)
	}
}

func TestReportJobLog(t *testing.T) {
	opts := DefaultOptions(4)
	opts.NB = 16
	_, rep := invertOnce(t, 64, opts, 1202)
	if len(rep.Jobs) != rep.JobsRun {
		t.Fatalf("job log has %d entries for %d jobs", len(rep.Jobs), rep.JobsRun)
	}
	if rep.Jobs[0].Name != "partition" {
		t.Fatalf("first job = %s", rep.Jobs[0].Name)
	}
	if rep.Jobs[len(rep.Jobs)-1].Name != "invert" {
		t.Fatalf("last job = %s", rep.Jobs[len(rep.Jobs)-1].Name)
	}
	for _, j := range rep.Jobs {
		if j.MapTasks == 0 {
			t.Fatalf("job %s has no map tasks", j.Name)
		}
	}
}

func TestReportAccounting(t *testing.T) {
	opts := DefaultOptions(4)
	opts.NB = 16
	_, rep := invertOnce(t, 64, opts, 912)
	if rep.MapTasks == 0 || rep.ReduceTasks == 0 {
		t.Fatalf("task counts empty: %+v", rep)
	}
	if rep.FS.BytesWritten == 0 || rep.FS.BytesRead == 0 {
		t.Fatal("FS accounting empty")
	}
	if rep.MasterLUs != 1<<uint(rep.Depth) {
		t.Fatalf("MasterLUs = %d, want 2^d = %d", rep.MasterLUs, 1<<uint(rep.Depth))
	}
	if rep.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
}

func TestPipelineDeterminant(t *testing.T) {
	opts := DefaultOptions(4)
	opts.NB = 12
	p, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	a := workload.DiagonallyDominant(40, 1301)
	got, err := p.Determinant(a)
	if err != nil {
		t.Fatal(err)
	}
	f, err := lu.Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	want := f.Det()
	if rel := (got - want) / want; rel > 1e-9 || rel < -1e-9 {
		t.Fatalf("det = %g, want %g", got, want)
	}
	if _, err := p.Determinant(matrix.New(2, 3)); err == nil {
		t.Fatal("non-square accepted")
	}
}
