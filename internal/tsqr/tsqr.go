// Package tsqr implements direct tall-and-skinny QR (TSQR) on the
// simulated MapReduce cluster, after Benson/Gleich/Demmel's direct TSQR:
// a tall m x n matrix (m >> n) is partitioned into row blocks, each map
// task computes a local thin Householder QR of its block, and a single
// reducer stacks the per-block R factors (in deterministic map-task
// order — the engine's shuffle contract) and factors the stack once more
// to obtain the final n x n R. The per-block Q factors stay in the DFS,
// so a second map round can
//
//   - apply Q^T to a right-hand side (Q^T b = sum_i Q2_i^T Q_i^T b_i) for
//     the least-squares solve x = R^-1 Q^T b, or
//   - form each block Q_i Q2_i of the thin orthonormal Q = diag(Q_i) * Q2
//     and with it the pseudo-inverse A^+ = R^-1 Q^T.
//
// Every entry point is a two-round MapReduce pipeline: one factorization
// round over A, one application round over the stored blocks. The square
// block-LU pipeline in internal/core handles this workload badly (it
// requires square inputs outright); TSQR is the regression-shaped
// complement the serving tier exposes as /lstsq and /pinv.
//
//mrlint:allow determinism(time.Now) -- wall-clock reads here feed Report timings and obs histograms only; factor/apply outputs are byte-stable by the shuffle contract
package tsqr

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// Typed errors. They map to HTTP 422 in the serving layer: semantically
// unusable inputs, not malformed requests.
var (
	// ErrNotTall reports a wide input (cols > rows): QR needs m >= n.
	ErrNotTall = errors.New("tsqr: matrix has more columns than rows")
	// ErrRankDeficient reports a numerically rank-deficient input, for
	// which R is not invertible and neither the least-squares solution
	// nor the pseudo-inverse path is usable.
	ErrRankDeficient = errors.New("tsqr: matrix is rank deficient")
	// ErrShapeMismatch reports a right-hand side whose row count does not
	// match the matrix.
	ErrShapeMismatch = errors.New("tsqr: right-hand side rows do not match matrix rows")
	// ErrResidual reports a least-squares solve whose normal-equations
	// residual exceeded the guardrail — the solution is not trustworthy
	// (severe ill-conditioning that escaped the rank check).
	ErrResidual = errors.New("tsqr: least-squares residual guardrail exceeded")
)

// rankTol is the relative size below which a diagonal entry of R counts
// as zero.
const rankTol = 1e-12

// DefaultResidualTol is the least-squares guardrail: the relative
// normal-equations residual of an accepted solution must not exceed it.
const DefaultResidualTol = 1e-8

// Config parameterizes one TSQR run.
type Config struct {
	// Blocks is the row-block count (= map tasks of the factor round).
	// 0 derives it from the cluster's slot count; it is always capped at
	// m/n so every block keeps at least n rows.
	Blocks int
	// Root is the DFS working directory of this run's intermediates.
	// Empty selects "tsqr". The caller owns cleanup (DeleteTree).
	Root string
	// Priority is the fair-share scheduling class of the run's jobs.
	Priority int
	// ResidualTol overrides DefaultResidualTol when > 0.
	ResidualTol float64
}

// Engine runs TSQR pipelines on a shared cluster. Tracer and Metrics are
// optional; all instrumentation is nil-safe.
type Engine struct {
	FS      *dfs.FS
	Cluster *mapreduce.Cluster
	Tracer  *obs.Tracer
	Metrics *obs.Registry
}

// Report aggregates the MapReduce accounting of one TSQR entry point.
type Report struct {
	Rows, Cols  int
	Blocks      int
	JobsRun     int // MapReduce rounds executed (factor = 1, apply = 1)
	MapTasks    int
	ReduceTasks int
	ShuffledKVs int
	Elapsed     time.Duration
	SlotWait    time.Duration
	SlotGrants  int64
	// Residual is the relative normal-equations residual of a
	// least-squares solve (zero for factor/pinv runs).
	Residual float64
}

func (rep *Report) record(jr *mapreduce.JobResult) {
	rep.JobsRun++
	rep.MapTasks += jr.MapTasks
	rep.ReduceTasks += jr.ReduceTasks
	rep.ShuffledKVs += jr.ShuffledKVs
	rep.SlotWait += jr.SlotWait
	rep.SlotGrants += jr.SlotGrants
}

// factorization is the distributed result of the factor round: the final
// R is master-resident; the per-block Q_i and Q2 slices live in the DFS
// under root, addressed by block index, until the caller deletes the tree.
type factorization struct {
	R      *matrix.Dense // n x n upper triangular, diagonal >= 0
	root   string
	blocks int
	offs   []int // block row offsets, len blocks+1
}

// ValidateTall checks that a is a usable TSQR input: non-nil, non-empty,
// and at least as many rows as columns. Wide inputs get ErrNotTall
// wrapped with the observed shape.
func ValidateTall(a *matrix.Dense) error {
	if a == nil {
		return errors.New("tsqr: nil input matrix")
	}
	if a.Rows == 0 || a.Cols == 0 {
		return fmt.Errorf("tsqr: empty input matrix %dx%d", a.Rows, a.Cols)
	}
	if a.Rows < a.Cols {
		return fmt.Errorf("%dx%d: %w", a.Rows, a.Cols, ErrNotTall)
	}
	return nil
}

// blockCount resolves the row-block count: the requested (or slot-derived)
// parallelism, capped so every block holds at least n rows.
func blockCount(m, n, want, slots int) int {
	b := want
	if b <= 0 {
		b = slots
	}
	if maxb := m / n; b > maxb {
		b = maxb
	}
	if b < 1 {
		b = 1
	}
	return b
}

// rowOffsets splits m rows into b near-equal contiguous blocks.
func rowOffsets(m, b int) []int {
	offs := make([]int, b+1)
	for i := 0; i <= b; i++ {
		offs[i] = i * m / b
	}
	return offs
}

func (c Config) root() string {
	if c.Root == "" {
		return "tsqr"
	}
	return c.Root
}

func (c Config) residualTol() float64 {
	if c.ResidualTol > 0 {
		return c.ResidualTol
	}
	return DefaultResidualTol
}

// startSpan opens the root span of one entry point (nil-safe).
func (e *Engine) startSpan(name string, m, n, blocks int) *obs.Span {
	if e.Tracer == nil {
		return nil
	}
	sp := e.Tracer.StartSpan(name, obs.KindPipeline)
	sp.SetAttr("rows", int64(m))
	sp.SetAttr("cols", int64(n))
	sp.SetAttr("blocks", int64(blocks))
	return sp
}

func (e *Engine) count(name string) {
	if e.Metrics != nil {
		e.Metrics.Counter(name).Add(1)
	}
}

func (e *Engine) observe(name string, d time.Duration) {
	if e.Metrics != nil {
		e.Metrics.Histogram(name).Observe(d)
	}
}

// value encoding for R factors travelling through the shuffle: a 4-byte
// little-endian block index followed by the binary matrix format.

func encodeIndexed(i int, m *matrix.Dense) ([]byte, error) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(i))
	buf.Write(hdr[:])
	if err := matrix.WriteBinary(&buf, m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeIndexed(v []byte) (int, *matrix.Dense, error) {
	if len(v) < 4 {
		return 0, nil, fmt.Errorf("tsqr: indexed value too short (%d bytes)", len(v))
	}
	i := int(binary.LittleEndian.Uint32(v[:4]))
	m, err := matrix.ReadBinary(bytes.NewReader(v[4:]))
	if err != nil {
		return 0, nil, err
	}
	return i, m, nil
}

// factor runs the factor round: row blocks of a are written to the DFS,
// each map task computes its block's thin Householder QR (storing Q_i
// under root/Q1), and one reducer stacks the R_i factors in block order,
// factors the (b*n) x n stack, canonicalizes signs so the final R has a
// non-negative diagonal, and stores the Q2 slices under root/Q2. The
// master decodes R and rejects rank-deficient input with a typed error.
// Intermediates stay under root for the apply round; the entry point's
// caller owns their deletion.
func (e *Engine) factor(ctx context.Context, a *matrix.Dense, b int, root string, cfg Config, rep *Report, span *obs.Span) (*factorization, error) {
	m, n := a.Dims()
	offs := rowOffsets(m, b)
	for i := 0; i < b; i++ {
		if err := e.FS.WriteMatrix(blockPath(root, "A", i), a.Block(offs[i], offs[i+1], 0, n)); err != nil {
			return nil, err
		}
	}

	job := &mapreduce.Job{
		Name:      "tsqr.localqr",
		Splits:    mapreduce.ControlSplits(b),
		NumReduce: 1,
		Priority:  cfg.Priority,
		Map: func(tctx *mapreduce.TaskContext, split mapreduce.InputSplit, emit mapreduce.Emitter) error {
			i := split.ID
			ai, err := tctx.FS.ReadMatrixFrom(blockPath(root, "A", i), tctx.Node)
			if err != nil {
				return err
			}
			f, err := householder(ai)
			if err != nil {
				return err
			}
			if err := tctx.FS.WriteMatrix(blockPath(root, "Q1", i), f.Q); err != nil {
				return err
			}
			tctx.IncrCounter("tsqr.local_qr_rows", int64(ai.Rows))
			v, err := encodeIndexed(i, f.R)
			if err != nil {
				return err
			}
			emit.Emit("R", v)
			return nil
		},
		Reduce: func(tctx *mapreduce.TaskContext, key string, values [][]byte, emit mapreduce.Emitter) error {
			// The shuffle delivers values in map-task order, but each one
			// carries its block index anyway: placement never depends on
			// arrival order.
			stacked := matrix.New(b*n, n)
			for _, v := range values {
				i, ri, err := decodeIndexed(v)
				if err != nil {
					return err
				}
				stacked.SetBlock(i*n, 0, ri)
			}
			f, err := householder(stacked)
			if err != nil {
				return err
			}
			// Canonicalize: flip rows of R (and the matching columns of
			// Q2) so diag(R) >= 0 — makes the factorization unique and
			// block-count independent up to rounding.
			r, q2 := f.R.Clone(), f.Q.Clone()
			for j := 0; j < n; j++ {
				if r.At(j, j) < 0 {
					for c := 0; c < n; c++ {
						r.Set(j, c, -r.At(j, c))
					}
					for row := 0; row < q2.Rows; row++ {
						q2.Set(row, j, -q2.At(row, j))
					}
				}
			}
			for i := 0; i < b; i++ {
				if err := tctx.FS.WriteMatrix(blockPath(root, "Q2", i), q2.Block(i*n, (i+1)*n, 0, n)); err != nil {
					return err
				}
			}
			v, err := encodeIndexed(0, r)
			if err != nil {
				return err
			}
			emit.Emit("R", v)
			return nil
		},
	}
	job.TraceParent = span
	jr, err := e.Cluster.RunCtx(ctx, job)
	if err != nil {
		return nil, err
	}
	rep.record(jr)
	if len(jr.Output) != 1 {
		return nil, fmt.Errorf("tsqr: factor round produced %d outputs, want 1", len(jr.Output))
	}
	_, r, err := decodeIndexed(jr.Output[0].Value)
	if err != nil {
		return nil, err
	}
	if err := checkRank(r); err != nil {
		e.count("tsqr.rank_deficient")
		return nil, err
	}
	return &factorization{R: r, root: root, blocks: b, offs: offs}, nil
}

// checkRank rejects an R whose diagonal carries a numerically zero entry.
func checkRank(r *matrix.Dense) error {
	scale := matrix.MaxAbs(r)
	for j := 0; j < r.Rows; j++ {
		if math.Abs(r.At(j, j)) < rankTol*(1+scale) {
			return fmt.Errorf("tsqr: R[%d][%d] ~ 0: %w", j, j, ErrRankDeficient)
		}
	}
	return nil
}

func blockPath(root, dir string, i int) string {
	return fmt.Sprintf("%s/%s/%d", root, dir, i)
}
