package tsqr

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/lu"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
)

// The apply rounds: once the factor round has left Q_i / Q2_i in the
// DFS, one more map round computes Q^T b for the least-squares solve, or
// the pseudo-inverse columns R^-1 (Q_i Q2_i)^T. Each entry point below is
// therefore a two-round MapReduce pipeline sharing one report and one
// root span.

// LeastSquaresCtx solves min_x ||A x - b|| via TSQR: factor A, apply
// Q^T to b distributively (Q^T b = sum_i Q2_i^T Q_i^T b_i), and
// back-substitute R x = Q^T b on the master. b may carry multiple
// right-hand-side columns. The solution is guarded: if the relative
// normal-equations residual ||A^T(Ax-b)|| exceeds the configured
// tolerance, the solve fails with ErrResidual instead of returning a
// silently bad x.
func (e *Engine) LeastSquaresCtx(ctx context.Context, a, b *matrix.Dense, cfg Config) (*matrix.Dense, *Report, error) {
	if err := ValidateTall(a); err != nil {
		return nil, nil, err
	}
	if b == nil || b.Rows == 0 || b.Cols == 0 {
		return nil, nil, fmt.Errorf("tsqr: empty right-hand side")
	}
	if b.Rows != a.Rows {
		return nil, nil, fmt.Errorf("A %dx%d, b %dx%d: %w", a.Rows, a.Cols, b.Rows, b.Cols, ErrShapeMismatch)
	}
	start := time.Now()
	m, n := a.Dims()
	nb := blockCount(m, n, cfg.Blocks, e.Cluster.Slots)
	root := cfg.root()
	rep := &Report{Rows: m, Cols: n, Blocks: nb}
	span := e.startSpan("tsqr.lstsq", m, n, nb)
	defer func() {
		span.Finish()
		rep.Elapsed = time.Since(start)
		e.observe("tsqr.lstsq_latency", rep.Elapsed)
	}()
	e.count("tsqr.lstsq_solves")

	fac, err := e.factor(ctx, a, nb, root, cfg, rep, span)
	if err != nil {
		return nil, rep, err
	}
	for i := 0; i < fac.blocks; i++ {
		if err := e.FS.WriteMatrix(blockPath(root, "B", i), b.Block(fac.offs[i], fac.offs[i+1], 0, b.Cols)); err != nil {
			return nil, rep, err
		}
	}

	job := &mapreduce.Job{
		Name:      "tsqr.qtb",
		Splits:    mapreduce.ControlSplits(fac.blocks),
		NumReduce: 1,
		Priority:  cfg.Priority,
		Map: func(tctx *mapreduce.TaskContext, split mapreduce.InputSplit, emit mapreduce.Emitter) error {
			i := split.ID
			qi, err := tctx.FS.ReadMatrixFrom(blockPath(root, "Q1", i), tctx.Node)
			if err != nil {
				return err
			}
			q2i, err := tctx.FS.ReadMatrixFrom(blockPath(root, "Q2", i), tctx.Node)
			if err != nil {
				return err
			}
			bi, err := tctx.FS.ReadMatrixFrom(blockPath(root, "B", i), tctx.Node)
			if err != nil {
				return err
			}
			qtb, err := matrix.Mul(qi.Transpose(), bi)
			if err != nil {
				return err
			}
			ti, err := matrix.Mul(q2i.Transpose(), qtb)
			if err != nil {
				return err
			}
			v, err := encodeIndexed(i, ti)
			if err != nil {
				return err
			}
			emit.Emit("t", v)
			return nil
		},
		Reduce: func(tctx *mapreduce.TaskContext, key string, values [][]byte, emit mapreduce.Emitter) error {
			var sum *matrix.Dense
			for _, v := range values {
				_, ti, err := decodeIndexed(v)
				if err != nil {
					return err
				}
				if sum == nil {
					sum = ti.Clone()
					continue
				}
				for idx := range sum.Data {
					sum.Data[idx] += ti.Data[idx]
				}
			}
			v, err := encodeIndexed(0, sum)
			if err != nil {
				return err
			}
			emit.Emit("qtb", v)
			return nil
		},
	}
	job.TraceParent = span
	jr, err := e.Cluster.RunCtx(ctx, job)
	if err != nil {
		return nil, rep, err
	}
	rep.record(jr)
	if len(jr.Output) != 1 {
		return nil, rep, fmt.Errorf("tsqr: qtb round produced %d outputs, want 1", len(jr.Output))
	}
	_, qtb, err := decodeIndexed(jr.Output[0].Value)
	if err != nil {
		return nil, rep, err
	}
	x := backSolve(fac.R, qtb)

	rep.Residual = normalResidual(a, b, x)
	if rep.Residual > cfg.residualTol() {
		e.count("tsqr.residual_rejects")
		return nil, rep, fmt.Errorf("tsqr: relative normal-equations residual %.3g > %.3g: %w",
			rep.Residual, cfg.residualTol(), ErrResidual)
	}
	return x, rep, nil
}

// PInvCtx computes the Moore-Penrose pseudo-inverse A^+ = R^-1 Q^T of a
// full-rank tall matrix from the direct-TSQR Q: each map task of the
// map-only apply round forms its block Q_i Q2_i of the thin Q from the
// stored factors and writes the column slice P_i = R^-1 (Q_i Q2_i)^T;
// the master stitches the n x m result together. The round never reads A
// again, so |A^+ A - I| grows like κ·ε, where the indirect W = A R^-1
// construction (W^T W = I only in exact arithmetic) grows like κ²·ε.
func (e *Engine) PInvCtx(ctx context.Context, a *matrix.Dense, cfg Config) (*matrix.Dense, *Report, error) {
	if err := ValidateTall(a); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	m, n := a.Dims()
	nb := blockCount(m, n, cfg.Blocks, e.Cluster.Slots)
	root := cfg.root()
	rep := &Report{Rows: m, Cols: n, Blocks: nb}
	span := e.startSpan("tsqr.pinv", m, n, nb)
	defer func() {
		span.Finish()
		rep.Elapsed = time.Since(start)
		e.observe("tsqr.pinv_latency", rep.Elapsed)
	}()
	e.count("tsqr.pinv_solves")

	fac, err := e.factor(ctx, a, nb, root, cfg, rep, span)
	if err != nil {
		return nil, rep, err
	}
	rinv, err := lu.UpperInverse(fac.R)
	if err != nil {
		// The factor round's rank check makes this unreachable for inputs
		// it accepted; keep the typed error for defense in depth.
		return nil, rep, fmt.Errorf("%v: %w", err, ErrRankDeficient)
	}
	if err := e.FS.WriteMatrix(root+"/Rinv", rinv); err != nil {
		return nil, rep, err
	}
	job := &mapreduce.Job{
		Name:     "tsqr.rinvqt",
		Splits:   mapreduce.ControlSplits(fac.blocks),
		Priority: cfg.Priority,
		Map: func(tctx *mapreduce.TaskContext, split mapreduce.InputSplit, emit mapreduce.Emitter) error {
			i := split.ID
			qi, err := tctx.FS.ReadMatrixFrom(blockPath(root, "Q1", i), tctx.Node)
			if err != nil {
				return err
			}
			q2i, err := tctx.FS.ReadMatrixFrom(blockPath(root, "Q2", i), tctx.Node)
			if err != nil {
				return err
			}
			ri, err := tctx.FS.ReadMatrixFrom(root+"/Rinv", tctx.Node)
			if err != nil {
				return err
			}
			q, err := matrix.Mul(qi, q2i)
			if err != nil {
				return err
			}
			pi, err := matrix.MulTransB(ri, q)
			if err != nil {
				return err
			}
			if err := tctx.FS.WriteMatrix(blockPath(root, "P", i), pi); err != nil {
				return err
			}
			emit.Emit(fmt.Sprintf("%d", i), nil)
			return nil
		},
	}
	job.TraceParent = span
	jr, err := e.Cluster.RunCtx(ctx, job)
	if err != nil {
		return nil, rep, err
	}
	rep.record(jr)

	pinv := matrix.New(n, m)
	for i := 0; i < fac.blocks; i++ {
		pi, err := e.FS.ReadMatrix(blockPath(root, "P", i))
		if err != nil {
			return nil, rep, err
		}
		pinv.SetBlock(0, fac.offs[i], pi)
	}
	return pinv, rep, nil
}

// backSolve solves R x = c for upper-triangular R by back substitution;
// the caller has already rejected numerically singular R.
func backSolve(r, c *matrix.Dense) *matrix.Dense {
	n, k := r.Rows, c.Cols
	x := c.Clone()
	for i := n - 1; i >= 0; i-- {
		for j := 0; j < k; j++ {
			s := x.At(i, j)
			for l := i + 1; l < n; l++ {
				s -= r.At(i, l) * x.At(l, j)
			}
			x.Set(i, j, s/r.At(i, i))
		}
	}
	return x
}

// normalResidual returns the relative normal-equations residual
// ||A^T (A x - b)||_F scaled by the problem's magnitude. For the exact
// least-squares solution it is zero in exact arithmetic regardless of how
// large the unavoidable residual A x - b itself is.
func normalResidual(a, b, x *matrix.Dense) float64 {
	ax, err := matrix.Mul(a, x)
	if err != nil {
		return math.Inf(1)
	}
	r := ax.Clone()
	for i := range r.Data {
		r.Data[i] -= b.Data[i]
	}
	atr, err := matrix.Mul(a.Transpose(), r)
	if err != nil {
		return math.Inf(1)
	}
	na := matrix.NormFrobenius(a)
	scale := na*na*matrix.NormFrobenius(x) + na*matrix.NormFrobenius(b)
	if scale == 0 {
		scale = 1
	}
	return matrix.NormFrobenius(atr) / scale
}

// SequentialLstsq is the single-node reference: one dense Householder QR
// of A and a back substitution. The serving layer uses it for requests
// the cost model routes away from the cluster; tests and the load
// generator use it as the ground truth TSQR must match.
func SequentialLstsq(a, b *matrix.Dense) (*matrix.Dense, error) {
	if err := ValidateTall(a); err != nil {
		return nil, err
	}
	if b == nil || b.Rows != a.Rows || b.Cols == 0 {
		br, bc := 0, 0
		if b != nil {
			br, bc = b.Dims()
		}
		return nil, fmt.Errorf("A %dx%d, b %dx%d: %w", a.Rows, a.Cols, br, bc, ErrShapeMismatch)
	}
	f, err := householder(a)
	if err != nil {
		return nil, err
	}
	if err := checkRank(f.R); err != nil {
		return nil, err
	}
	qtb, err := matrix.Mul(f.Q.Transpose(), b)
	if err != nil {
		return nil, err
	}
	return backSolve(f.R, qtb), nil
}

// SequentialPInv is the single-node pseudo-inverse reference:
// A^+ = R^-1 Q^T from one dense Householder QR.
func SequentialPInv(a *matrix.Dense) (*matrix.Dense, error) {
	if err := ValidateTall(a); err != nil {
		return nil, err
	}
	f, err := householder(a)
	if err != nil {
		return nil, err
	}
	if err := checkRank(f.R); err != nil {
		return nil, err
	}
	rinv, err := lu.UpperInverse(f.R)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrRankDeficient)
	}
	return matrix.Mul(rinv, f.Q.Transpose())
}
