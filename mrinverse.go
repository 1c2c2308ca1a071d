// Package mrinverse is the public API of this repository: scalable matrix
// inversion using MapReduce, a from-scratch Go reproduction of Xiang, Meng
// and Aboulnaga, "Scalable Matrix Inversion Using MapReduce" (HPDC 2014).
//
// The package exposes several inverters:
//
//   - Invert: the paper's contribution — recursive block LU decomposition
//     executed as a pipeline of MapReduce jobs over a simulated Hadoop
//     cluster (internal/mapreduce + internal/dfs), with the Section 6
//     optimizations togglable via Options;
//   - InvertLocal: the single-node Algorithm 1 reference (LU with partial
//     pivoting, Equation 4 triangular inversion);
//   - InvertScaLAPACK: the paper's comparison baseline, a block-cyclic
//     message-passing implementation in the ScaLAPACK style on the
//     paper's f1 x f2 process grid;
//   - InvertSpark (auto.go): the paper's Section 8 future work, the same
//     algorithm on an in-memory lineage-tracked engine;
//   - AutoInvert (auto.go): Section 8's adaptive technique selection.
//
// Around them: Decompose, Determinant, SolveDirect, Multiply, Refine, and
// the Section 1 applications (Solve, InverseIteration, ReconstructImage,
// ConditionNumber).
//
// All inverters operate on *Matrix (a dense row-major float64 matrix) and
// satisfy the paper's Section 7.2 acceptance criterion, which Residual
// computes: every element of I - A·A⁻¹ small.
//
// A minimal session:
//
//	a := mrinverse.Random(512, 42)
//	inv, report, err := mrinverse.Invert(a, mrinverse.DefaultOptions(8))
//	if err != nil { ... }
//	fmt.Println(report.JobsRun, mrinverse.Residual(a, inv))
package mrinverse

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/scalapack"
	"repro/internal/workload"
)

// Matrix is a dense, row-major matrix of float64 values. See
// internal/matrix for the full method set (At, Set, Block, Transpose, ...).
type Matrix = matrix.Dense

// Perm is a compact row permutation (the paper's array S).
type Perm = matrix.Perm

// Options configures the MapReduce pipeline: node count m0, bound value
// nb, and the Section 6 optimization toggles.
type Options = core.Options

// Report summarizes a pipeline run: jobs, tasks, failures, file counts,
// and byte-level I/O accounting.
type Report = core.Report

// ScaLAPACKConfig configures the MPI baseline.
type ScaLAPACKConfig = scalapack.Config

// ScaLAPACKStats reports the baseline's communication volume.
type ScaLAPACKStats = scalapack.Stats

// Tracer records a hierarchical span tree of a run (internal/obs). Attach
// one with InvertObserved, export it with WriteChromeTrace, analyze it
// with obs.ComputeCriticalPath. A nil Tracer disables tracing at zero cost.
type Tracer = obs.Tracer

// Metrics is a registry of counters, gauges, and latency histograms fed by
// the instrumented layers (internal/obs).
type Metrics = obs.Registry

// NewTracer returns an empty span tracer.
func NewTracer() *Tracer { return obs.New() }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// DefaultOptions returns the paper's optimized configuration for a
// simulated cluster of the given node count.
func DefaultOptions(nodes int) Options { return core.DefaultOptions(nodes) }

// NewMatrix returns a zero r x c matrix.
func NewMatrix(r, c int) *Matrix { return matrix.New(r, c) }

// FromRows builds a matrix from rows, copying the data.
func FromRows(rows [][]float64) *Matrix { return matrix.FromRows(rows) }

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix { return matrix.Identity(n) }

// Random returns a seeded random n x n matrix with Uniform(-1,1) entries —
// the paper's synthetic workload.
func Random(n int, seed int64) *Matrix { return workload.Random(n, seed) }

// DiagonallyDominant returns a seeded random diagonally dominant matrix,
// guaranteed nonsingular and well conditioned.
func DiagonallyDominant(n int, seed int64) *Matrix { return workload.DiagonallyDominant(n, seed) }

// Input-validation sentinels: every inverter entry point of this package
// rejects nil, empty, and rectangular inputs with one of these typed
// errors (test with errors.Is). Serving layers map them to client errors
// (HTTP 400) rather than internal failures.
var (
	ErrNilMatrix   = core.ErrNilMatrix
	ErrEmptyMatrix = core.ErrEmptyMatrix
	ErrNotSquare   = core.ErrNotSquare
)

// ValidateInput checks that a is a usable inversion input — non-nil,
// non-empty, square — returning one of the sentinel errors otherwise.
func ValidateInput(a *Matrix) error { return core.ValidateInput(a) }

// Invert computes A^-1 with the paper's MapReduce pipeline on a fresh
// simulated cluster and returns the run report alongside the inverse.
func Invert(a *Matrix, opts Options) (*Matrix, *Report, error) {
	return InvertCtx(context.Background(), a, opts)
}

// InvertCtx is Invert with a deadline/cancellation context: the pipeline
// observes ctx cooperatively between MapReduce jobs and phases, so a
// canceled or expired request stops consuming the simulated cluster at the
// next job boundary. An already-expired ctx returns before any cluster
// work is scheduled.
func InvertCtx(ctx context.Context, a *Matrix, opts Options) (*Matrix, *Report, error) {
	if err := core.ValidateInput(a); err != nil {
		return nil, nil, err
	}
	p, err := core.NewPipeline(opts)
	if err != nil {
		return nil, nil, err
	}
	return p.InvertCtx(ctx, a)
}

// InvertObserved is Invert with observability attached: spans land in tr
// and counters in met (either may be nil). The returned Report's Trace
// field holds the run's root span.
func InvertObserved(a *Matrix, opts Options, tr *Tracer, met *Metrics) (*Matrix, *Report, error) {
	if err := core.ValidateInput(a); err != nil {
		return nil, nil, err
	}
	p, err := core.NewPipeline(opts)
	if err != nil {
		return nil, nil, err
	}
	p.Tracer = tr
	p.Metrics = met
	return p.Invert(a)
}

// Decompose runs the pipeline's partition and block-LU stages only,
// returning P, L, U with P·A = L·U.
func Decompose(a *Matrix, opts Options) (Perm, *Matrix, *Matrix, error) {
	p, err := core.NewPipeline(opts)
	if err != nil {
		return nil, nil, nil, err
	}
	return p.Decompose(a)
}

// InvertLocal computes A^-1 on a single node with Algorithm 1 (LU with
// partial pivoting) and Equation 4 triangular inversion.
func InvertLocal(a *Matrix) (*Matrix, error) {
	if err := core.ValidateInput(a); err != nil {
		return nil, err
	}
	return lu.Invert(a)
}

// InvertScaLAPACK computes A^-1 with the distributed-memory MPI baseline.
func InvertScaLAPACK(a *Matrix, cfg ScaLAPACKConfig) (*Matrix, *ScaLAPACKStats, error) {
	if err := core.ValidateInput(a); err != nil {
		return nil, nil, err
	}
	return scalapack.Invert(a, cfg)
}

// Solve solves the linear system A x = b through the MapReduce inverse:
// x = A^-1 b — the paper's Section 1 motivating application.
func Solve(a *Matrix, b []float64, opts Options) ([]float64, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("mrinverse: Solve: %d equations, %d rhs values", a.Rows, len(b))
	}
	inv, _, err := Invert(a, opts)
	if err != nil {
		return nil, err
	}
	return matrix.MulVec(inv, b)
}

// SolveDirect solves A X = B through the decomposition pipeline without
// forming A^-1: the factors are computed by the usual partition + block-LU
// jobs, then a map-only job substitutes disjoint bands of B's columns —
// 2n^2 work per right-hand side instead of the n^3 inversion. Prefer this
// over Solve when the number of right-hand sides is small.
func SolveDirect(a, b *Matrix, opts Options) (*Matrix, error) {
	p, err := core.NewPipeline(opts)
	if err != nil {
		return nil, err
	}
	return p.Solve(a, b)
}

// Multiply computes A * B with one MapReduce job using the Section 6.2
// block-wrap layout (togglable via opts.BlockWrap).
func Multiply(a, b *Matrix, opts Options) (*Matrix, error) {
	p, err := core.NewPipeline(opts)
	if err != nil {
		return nil, err
	}
	return p.Multiply(a, b)
}

// Determinant computes det(A) through the MapReduce decomposition:
// sign(P) times the product of U's diagonal.
func Determinant(a *Matrix, opts Options) (float64, error) {
	p, err := core.NewPipeline(opts)
	if err != nil {
		return 0, err
	}
	return p.Determinant(a)
}

// Refine improves a computed inverse with Newton-Schulz iteration
// (X' = X(2I - AX)), returning the refined inverse and its final
// max|I - AX| residual. Use it to tighten accuracy on ill-conditioned
// inputs after any of the inverters.
func Refine(a, x *Matrix, maxIter int) (*Matrix, float64, error) {
	return lu.RefineInverse(a, x, maxIter)
}

// Residual returns max |I - A·B|, the paper's Section 7.2 correctness
// metric (they verify every element of I - M·M^-1 is below 1e-5).
func Residual(a, b *Matrix) float64 {
	r, err := matrix.IdentityResidual(a, b)
	if err != nil {
		return math.Inf(1)
	}
	return r
}

// PipelineJobs returns the number of MapReduce jobs the pipeline runs for
// an order-n matrix with bound value nb — Table 3's "Number of Jobs".
func PipelineJobs(n, nb int) int { return core.PipelineJobs(n, nb) }

// WriteMatrixFile stores m at path; ".txt" selects the paper's text
// format, ".mtx" the MatrixMarket array format, anything else the binary
// format.
func WriteMatrixFile(path string, m *Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".txt"):
		err = matrix.WriteText(f, m)
	case strings.HasSuffix(path, ".mtx"):
		err = matrix.WriteMatrixMarket(f, m)
	default:
		err = matrix.WriteBinary(f, m)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

// ReadMatrixFile loads a matrix stored by WriteMatrixFile (or any
// MatrixMarket array-format .mtx file).
func ReadMatrixFile(path string) (*Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".txt"):
		return matrix.ReadText(f)
	case strings.HasSuffix(path, ".mtx"):
		return matrix.ReadMatrixMarket(f)
	default:
		return matrix.ReadBinary(f)
	}
}
