package tsqr

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/workload"
)

// newEngine builds a TSQR engine over a fresh simulated cluster.
func newEngine(nodes int) *Engine {
	fs := dfs.New(nodes, 1)
	return &Engine{FS: fs, Cluster: mapreduce.NewCluster(fs, nodes)}
}

// factorBlocks runs the factor round alone with the entry points' block
// resolution and returns its factorization and report.
func factorBlocks(eng *Engine, a *matrix.Dense, blocks int, root string) (*factorization, *Report, error) {
	m, n := a.Dims()
	b := blockCount(m, n, blocks, eng.Cluster.Slots)
	rep := &Report{Rows: m, Cols: n, Blocks: b}
	fac, err := eng.factor(context.Background(), a, b, root, Config{}, rep, nil)
	return fac, rep, err
}

// stitchQ assembles the thin Q = diag(Q_i) * Q2 from the Q1 and Q2
// blocks the factor round left in the DFS.
func stitchQ(t *testing.T, eng *Engine, fac *factorization) *matrix.Dense {
	t.Helper()
	q := matrix.New(fac.offs[fac.blocks], fac.R.Cols)
	for i := 0; i < fac.blocks; i++ {
		qi, err := eng.FS.ReadMatrix(blockPath(fac.root, "Q1", i))
		if err != nil {
			t.Fatal(err)
		}
		q2i, err := eng.FS.ReadMatrix(blockPath(fac.root, "Q2", i))
		if err != nil {
			t.Fatal(err)
		}
		prod, err := matrix.Mul(qi, q2i)
		if err != nil {
			t.Fatal(err)
		}
		q.SetBlock(fac.offs[i], 0, prod)
	}
	return q
}

// orthonormalError returns max |Q^T Q - I| — zero for exactly
// orthonormal columns.
func orthonormalError(t *testing.T, q *matrix.Dense) float64 {
	t.Helper()
	qtq, err := matrix.Mul(q.Transpose(), q)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := 0; i < qtq.Rows; i++ {
		for j := 0; j < qtq.Cols; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if d := math.Abs(qtq.At(i, j) - want); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TestFactorReconstructsA checks the factor round across seeds and block
// counts: the Q stitched from the stored Q1 and Q2 blocks has orthonormal
// columns, R is upper
// triangular with a non-negative diagonal, and ||A - QR||/||A|| is at
// rounding level.
func TestFactorReconstructsA(t *testing.T) {
	eng := newEngine(4)
	for _, tc := range []struct {
		m, n, blocks int
		seed         int64
	}{
		{60, 5, 0, 1},
		{64, 8, 2, 2},
		{100, 4, 7, 3},
		{33, 3, 11, 4}, // blocks capped at m/n = 11
		{24, 6, 1, 5},  // degenerate single block
	} {
		a := workload.RandomRect(tc.m, tc.n, tc.seed)
		fac, rep, err := factorBlocks(eng, a, tc.blocks, "t/factor")
		if err != nil {
			t.Fatalf("%dx%d blocks=%d: %v", tc.m, tc.n, tc.blocks, err)
		}
		if rep.JobsRun != 1 || rep.MapTasks != fac.blocks || rep.ReduceTasks != 1 {
			t.Fatalf("report %+v, blocks %d", rep, fac.blocks)
		}
		if fac.R.Rows != tc.n || fac.R.Cols != tc.n {
			t.Fatalf("R is %dx%d, want %dx%d", fac.R.Rows, fac.R.Cols, tc.n, tc.n)
		}
		for i := 0; i < tc.n; i++ {
			if fac.R.At(i, i) < 0 {
				t.Fatalf("R[%d][%d] = %g < 0: sign not canonicalized", i, i, fac.R.At(i, i))
			}
			for j := 0; j < i; j++ {
				if math.Abs(fac.R.At(i, j)) > 1e-12*(1+matrix.MaxAbs(fac.R)) {
					t.Fatalf("R[%d][%d] = %g below diagonal", i, j, fac.R.At(i, j))
				}
			}
		}
		q := stitchQ(t, eng, fac)
		if q.Rows != tc.m || q.Cols != tc.n {
			t.Fatalf("Q is %dx%d, want %dx%d", q.Rows, q.Cols, tc.m, tc.n)
		}
		if e := orthonormalError(t, q); e > 1e-12 {
			t.Fatalf("%dx%d blocks=%d: Q orthonormality error %g", tc.m, tc.n, tc.blocks, e)
		}
		qr, err := matrix.Mul(q, fac.R)
		if err != nil {
			t.Fatal(err)
		}
		if rel := matrix.MaxAbsDiff(qr, a) / matrix.MaxAbs(a); rel > 1e-12 {
			t.Fatalf("%dx%d blocks=%d: ||A-QR||/||A|| = %g", tc.m, tc.n, tc.blocks, rel)
		}
		eng.FS.DeleteTree("t")
	}
}

// TestFactorBlockCountInvariant pins the canonicalized R: the same A
// factored with different block counts yields the same R up to rounding,
// because the reducer flips signs until diag(R) >= 0.
func TestFactorBlockCountInvariant(t *testing.T) {
	eng := newEngine(4)
	a := workload.RandomRect(96, 6, 77)
	var ref *matrix.Dense
	for _, blocks := range []int{1, 2, 3, 8} {
		fac, _, err := factorBlocks(eng, a, blocks, "t/inv")
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = fac.R
		} else if d := matrix.MaxAbsDiff(ref, fac.R); d > 1e-10 {
			t.Fatalf("blocks=%d: R differs from single-block reference by %g", blocks, d)
		}
		eng.FS.DeleteTree("t")
	}
}

// TestLeastSquaresMatchesSequential compares the distributed solve
// against the single-node Householder reference across seeds and block
// counts, and checks the report's residual accounting.
func TestLeastSquaresMatchesSequential(t *testing.T) {
	eng := newEngine(4)
	for _, tc := range []struct {
		m, n, k, blocks int
		seed            int64
	}{
		{80, 6, 1, 0, 10},
		{120, 5, 3, 4, 11}, // multiple right-hand sides
		{50, 10, 1, 5, 12},
		{200, 4, 2, 8, 13},
	} {
		a := workload.RandomRect(tc.m, tc.n, tc.seed)
		b := workload.RandomRect(tc.m, tc.k, tc.seed+1000)
		x, rep, err := eng.LeastSquaresCtx(context.Background(), a, b, Config{Blocks: tc.blocks, Root: "t/ls"})
		if err != nil {
			t.Fatalf("%dx%d: %v", tc.m, tc.n, err)
		}
		if x.Rows != tc.n || x.Cols != tc.k {
			t.Fatalf("x is %dx%d, want %dx%d", x.Rows, x.Cols, tc.n, tc.k)
		}
		if rep.Residual > DefaultResidualTol {
			t.Fatalf("reported residual %g above guardrail", rep.Residual)
		}
		if rep.JobsRun != 2 {
			t.Fatalf("lstsq ran %d jobs, want 2", rep.JobsRun)
		}
		ref, err := SequentialLstsq(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if d := matrix.MaxAbsDiff(x, ref); d > 1e-8 {
			t.Fatalf("%dx%d blocks=%d: |x - x_seq| = %g", tc.m, tc.n, tc.blocks, d)
		}
		eng.FS.DeleteTree("t")
	}
}

// TestLeastSquaresExactSystem: when b = A x_true, the minimizer is
// x_true itself and the fitted residual A x - b is ~0.
func TestLeastSquaresExactSystem(t *testing.T) {
	eng := newEngine(4)
	a := workload.RandomRect(90, 7, 21)
	xtrue := workload.RandomRect(7, 1, 22)
	b, err := matrix.Mul(a, xtrue)
	if err != nil {
		t.Fatal(err)
	}
	x, _, err := eng.LeastSquaresCtx(context.Background(), a, b, Config{Root: "t/exact"})
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(x, xtrue); d > 1e-10 {
		t.Fatalf("|x - x_true| = %g", d)
	}
}

// TestPInv checks the distributed pseudo-inverse: A^+ A = I (left
// inverse of a full-column-rank tall matrix) in exactly two MapReduce
// jobs, and agreement with the sequential reference. The graded rows
// sweep the condition number κ: both paths must keep |A^+ A - I| within
// 4·n·κ·ε, the accuracy of A^+ = R^-1 Q^T with a directly formed Q.
func TestPInv(t *testing.T) {
	eng := newEngine(4)
	for _, blocks := range []int{0, 2, 6} {
		a := workload.RandomRect(66, 5, 41)
		pinv, rep, err := eng.PInvCtx(context.Background(), a, Config{Blocks: blocks, Root: "t/pinv"})
		if err != nil {
			t.Fatal(err)
		}
		if pinv.Rows != 5 || pinv.Cols != 66 {
			t.Fatalf("A+ is %dx%d, want 5x66", pinv.Rows, pinv.Cols)
		}
		if rep.JobsRun != 2 {
			t.Fatalf("pinv ran %d jobs, want 2", rep.JobsRun)
		}
		if d := leftInverseError(t, pinv, a); d > 1e-10 {
			t.Fatalf("blocks=%d: |A+ A - I| = %g", blocks, d)
		}
		ref, err := SequentialPInv(a)
		if err != nil {
			t.Fatal(err)
		}
		if d := matrix.MaxAbsDiff(pinv, ref); d > 1e-8 {
			t.Fatalf("blocks=%d: |A+ - A+_seq| = %g", blocks, d)
		}
		eng.FS.DeleteTree("t")
	}
	for _, shape := range []struct{ m, n, blocks int }{{512, 16, 8}, {48, 3, 4}} {
		for _, kappa := range []float64{1, 1e2, 1e4, 1e6, 1e8, 1e10} {
			a := workload.Graded(shape.m, shape.n, kappa, 7)
			bound := 4 * float64(shape.n) * kappa * epsilon
			pinv, _, err := eng.PInvCtx(context.Background(), a, Config{Blocks: shape.blocks, Root: "t/graded"})
			if err != nil {
				t.Fatalf("%dx%d κ=%g: %v", shape.m, shape.n, kappa, err)
			}
			if d := leftInverseError(t, pinv, a); d > bound {
				t.Errorf("tsqr %dx%d κ=%g: |A+ A - I| = %.3g > %.3g", shape.m, shape.n, kappa, d, bound)
			}
			ref, err := SequentialPInv(a)
			if err != nil {
				t.Fatalf("sequential %dx%d κ=%g: %v", shape.m, shape.n, kappa, err)
			}
			if d := leftInverseError(t, ref, a); d > bound {
				t.Errorf("sequential %dx%d κ=%g: |A+ A - I| = %.3g > %.3g", shape.m, shape.n, kappa, d, bound)
			}
			eng.FS.DeleteTree("t")
		}
	}
}

// epsilon is the float64 unit roundoff 2^-52.
const epsilon = 0x1p-52

// leftInverseError returns max |P A - I|.
func leftInverseError(t *testing.T, p, a *matrix.Dense) float64 {
	t.Helper()
	pa, err := matrix.Mul(p, a)
	if err != nil {
		t.Fatal(err)
	}
	return matrix.MaxAbsDiff(pa, matrix.Identity(a.Cols))
}

// TestRankDeficientTypedError: a tall matrix with a duplicated column is
// numerically rank deficient; every entry point must return the typed
// error without panicking, on both the distributed and sequential paths.
func TestRankDeficientTypedError(t *testing.T) {
	eng := newEngine(4)
	a := workload.RandomRect(40, 4, 51)
	for i := 0; i < a.Rows; i++ {
		a.Set(i, 3, a.At(i, 1)) // column 3 := column 1
	}
	b := workload.RandomRect(40, 1, 52)

	if _, _, err := factorBlocks(eng, a, 0, "t/rd"); !errors.Is(err, ErrRankDeficient) {
		t.Fatalf("factor: err %v, want ErrRankDeficient", err)
	}
	if _, _, err := eng.LeastSquaresCtx(context.Background(), a, b, Config{Root: "t/rd"}); !errors.Is(err, ErrRankDeficient) {
		t.Fatalf("lstsq: err %v, want ErrRankDeficient", err)
	}
	if _, _, err := eng.PInvCtx(context.Background(), a, Config{Root: "t/rd"}); !errors.Is(err, ErrRankDeficient) {
		t.Fatalf("pinv: err %v, want ErrRankDeficient", err)
	}
	if _, err := SequentialLstsq(a, b); !errors.Is(err, ErrRankDeficient) {
		t.Fatalf("sequential lstsq: err %v, want ErrRankDeficient", err)
	}
	if _, err := SequentialPInv(a); !errors.Is(err, ErrRankDeficient) {
		t.Fatalf("sequential pinv: err %v, want ErrRankDeficient", err)
	}
}

// TestValidationErrors pins the typed rejections: wide inputs, nil/empty
// matrices, and mismatched right-hand sides.
func TestValidationErrors(t *testing.T) {
	eng := newEngine(2)
	wide := workload.RandomRect(3, 9, 1)
	if _, _, err := eng.PInvCtx(context.Background(), wide, Config{}); !errors.Is(err, ErrNotTall) {
		t.Fatalf("wide: err %v, want ErrNotTall", err)
	} else if !strings.Contains(err.Error(), "3x9") {
		t.Fatalf("wide error %q lacks observed shape", err)
	}
	if err := ValidateTall(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if err := ValidateTall(matrix.New(0, 0)); err == nil {
		t.Fatal("empty accepted")
	}
	a := workload.RandomRect(20, 4, 2)
	badB := workload.RandomRect(19, 1, 3)
	if _, _, err := eng.LeastSquaresCtx(context.Background(), a, badB, Config{}); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("mismatched rhs: err %v, want ErrShapeMismatch", err)
	}
	if _, err := SequentialLstsq(a, badB); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("sequential mismatched rhs: err %v, want ErrShapeMismatch", err)
	}
}

// TestResidualGuardrail: an absurdly tight tolerance trips the guardrail
// with the typed error and counts the reject.
func TestResidualGuardrail(t *testing.T) {
	eng := newEngine(2)
	eng.Metrics = obs.NewRegistry()
	a := workload.RandomRect(64, 6, 61)
	b := workload.RandomRect(64, 1, 62)
	_, rep, err := eng.LeastSquaresCtx(context.Background(), a, b, Config{Root: "t/guard", ResidualTol: 1e-30})
	if !errors.Is(err, ErrResidual) {
		t.Fatalf("err %v, want ErrResidual", err)
	}
	if rep == nil || rep.Residual == 0 {
		t.Fatal("rejected solve did not report its residual")
	}
	if eng.Metrics.Counter("tsqr.residual_rejects").Value() != 1 {
		t.Fatal("residual reject not counted")
	}
}

// TestTraceAndMetrics checks the observability surface: tsqr.* spans
// reach the tracer (and survive the Chrome-trace export), and the
// counters advance.
func TestTraceAndMetrics(t *testing.T) {
	eng := newEngine(4)
	eng.Tracer = obs.New()
	eng.Metrics = obs.NewRegistry()
	a := workload.RandomRect(60, 5, 71)
	b := workload.RandomRect(60, 1, 72)
	if _, _, err := eng.LeastSquaresCtx(context.Background(), a, b, Config{Root: "t/obs"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.PInvCtx(context.Background(), a, Config{Root: "t/obs2"}); err != nil {
		t.Fatal(err)
	}
	spans := eng.Tracer.Snapshot()
	want := map[string]bool{"tsqr.lstsq": false, "tsqr.pinv": false}
	for _, sp := range spans {
		if _, ok := want[sp.Name]; ok {
			want[sp.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("span %q missing from trace (got %d spans)", name, len(spans))
		}
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tsqr.lstsq") {
		t.Fatal("Chrome-trace export lacks tsqr.lstsq span")
	}
	if eng.Metrics.Counter("tsqr.lstsq_solves").Value() != 1 ||
		eng.Metrics.Counter("tsqr.pinv_solves").Value() != 1 {
		t.Fatal("solve counters did not advance")
	}
}

// TestNilInstrumentationSafe: an engine with no tracer and no registry
// runs every entry point without panicking.
func TestNilInstrumentationSafe(t *testing.T) {
	eng := newEngine(2)
	a := workload.RandomRect(30, 3, 81)
	b := workload.RandomRect(30, 1, 82)
	if _, _, err := eng.LeastSquaresCtx(context.Background(), a, b, Config{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.PInvCtx(context.Background(), a, Config{Root: "t2"}); err != nil {
		t.Fatal(err)
	}
}
