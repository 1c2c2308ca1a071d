package core

import (
	"fmt"

	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// Standalone MapReduce jobs built from the pipeline's machinery:
//
//   - Multiply exposes the Section 6.2 block-wrap matrix multiplication
//     as its own job (the paper's reducers perform exactly this product
//     for B = A4 - L2'U2 and for U^-1 L^-1);
//   - Solve runs the decomposition stages once and then solves A X = B by
//     triangular substitution in a map-only job — the Section 1 linear
//     system application without ever forming A^-1 (2n^2 work per right
//     hand side instead of the n^3 inversion).

// Multiply computes C = A * B with the strategy selected by
// Opts.Multiply. The default single-round strategy runs one MapReduce
// job: a map-only prologue stores A as g1 row bands and B as g2
// transposed column bands, and reducer r computes block (r/g2, r%g2) of
// C by the block-wrap rule, reading n^2 (1/g1 + 1/g2) elements instead
// of the naive (1 + 1/m0) n^2 (Section 6.2). The multi-round strategies
// (see MultiplyStrategy) trade extra rounds for less shuffle traffic or
// less per-reducer memory; MultiplyWithReport exposes the measured
// transfer accounting the CI gate compares.
func (p *Pipeline) Multiply(a, b *matrix.Dense) (*matrix.Dense, error) {
	out, _, err := p.MultiplyWithReport(a, b)
	return out, err
}

// MultiplyWithReport computes C = A * B like Multiply and also returns
// the per-strategy execution report: jobs launched, shuffled pairs, and
// the DFS byte accounting (in particular TransferredBytes, the
// cross-node traffic the multi-round strategies exist to shrink).
func (p *Pipeline) MultiplyWithReport(a, b *matrix.Dense) (*matrix.Dense, *MultiplyReport, error) {
	if a.Cols != b.Rows {
		return nil, nil, fmt.Errorf("core: Multiply: %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	p.attachObs()
	pl := planMultiply(p.Opts, a.Rows, a.Cols, b.Cols)
	span := p.Tracer.StartSpan("pipeline.multiply", obs.KindPipeline)
	span.SetLabel("multiply.strategy", string(pl.strategy))
	span.SetAttr("multiply.rho", int64(pl.rho))
	defer span.Finish()

	geom := mulGeom{
		plan: pl,
		m0:   p.Opts.Nodes,
		rows: a.Rows, inner: a.Cols, cols: b.Cols,
		root:    p.Opts.Root + "/MUL",
		durable: p.Cluster.Faults != nil,
		pin:     true,
	}
	p.FS.DeleteTree(geom.root)

	rep := &MultiplyReport{Strategy: pl.strategy, Rho: pl.rho, Grid: [2]int{pl.g1, pl.g2}}
	run := func(job *mapreduce.Job) error {
		job.Priority = p.Opts.Priority
		job.TraceParent = span
		jr, err := p.Cluster.Run(job)
		if err != nil {
			return err
		}
		rep.absorb(jr)
		return nil
	}
	finish := func(ctx *mapreduce.TaskContext, i, j int, blk *matrix.Dense) error {
		ctx.IncrCounter("mul.elements", int64(blk.Rows)*int64(blk.Cols))
		return ctx.FS.WriteMatrix(geom.outPath(i, j), blk)
	}
	readA, readBT := filePieceReaders(geom)
	names := mulNames{first: "multiply", sum: "multiply-sum", round: "multiply-round"}
	if err := runMulRounds(geom, names, run, inMemoryPieces(a, b, geom), readA, readBT, finish); err != nil {
		return nil, nil, err
	}

	out := matrix.New(a.Rows, b.Cols)
	rd := masterReader(p.FS)
	for i := 0; i < pl.g1; i++ {
		rlo, rhi := geom.rowBand(i)
		if rlo == rhi {
			continue
		}
		for j := 0; j < pl.g2; j++ {
			clo, chi := geom.colBand(j)
			if clo == chi {
				continue
			}
			blk, err := rd.readMatrix(geom.outPath(i, j))
			if err != nil {
				return nil, nil, err
			}
			out.SetBlock(rlo, clo, blk)
		}
	}
	span.SetAttr("multiply.bytes_transferred", rep.TransferredBytes)
	span.SetAttr("multiply.jobs", int64(rep.Jobs))
	if p.Metrics != nil {
		p.Metrics.Counter("multiply.jobs").Add(int64(rep.Jobs))
		p.Metrics.Counter("multiply.bytes_transferred").Add(rep.TransferredBytes)
		switch pl.strategy {
		case MultiplyReplicated:
			p.Metrics.Counter("multiply.replicated").Add(1)
		case MultiplySpaceRound:
			p.Metrics.Counter("multiply.space_round").Add(1)
		default:
			p.Metrics.Counter("multiply.single_round").Add(1)
		}
	}
	return out, rep, nil
}

// Solve computes X with A X = B through the decomposition pipeline: the
// partition and block-LU jobs run once, then a map-only job forward- and
// back-substitutes disjoint bands of B's columns against the factor files.
func (p *Pipeline) Solve(a, b *matrix.Dense) (*matrix.Dense, error) {
	if !a.IsSquare() || a.Rows != b.Rows {
		return nil, fmt.Errorf("core: Solve: A is %dx%d, B is %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	p.attachObs()
	st := &pipelineState{opts: p.Opts, fs: p.FS, cluster: p.Cluster}
	st.span = p.Tracer.StartSpan("pipeline.solve", obs.KindPipeline)
	defer st.span.Finish()
	n := a.Rows
	if err := writeInputBands(p.FS, p.Opts, a, p.Opts.Nodes); err != nil {
		return nil, err
	}
	pjob := partitionJob(p.Opts, n, p.FS)
	pjob.TraceParent = st.span
	pj, err := p.Cluster.Run(pjob)
	if err != nil {
		return nil, err
	}
	st.recordJob(pj)
	tree, err := buildInputTree(p.Opts, n, pj.Output)
	if err != nil {
		return nil, err
	}
	hd, err := st.computeLU(tree)
	if err != nil {
		return nil, err
	}

	// Store B as column bands so each solver mapper reads only its own.
	m0 := p.Opts.Nodes
	root := p.Opts.Root + "/SOLVE"
	p.FS.DeleteTree(root)
	for j := 0; j < m0; j++ {
		lo, hi := bandBounds(b.Cols, m0, j)
		if lo == hi {
			continue
		}
		if err := p.FS.WriteMatrix(fmt.Sprintf("%s/B.%d", root, j), b.Block(0, n, lo, hi)); err != nil {
			return nil, err
		}
	}
	perm := hd.p

	job := &mapreduce.Job{
		Name:     "solve",
		Splits:   mapreduce.ControlSplits(m0),
		Priority: p.Opts.Priority,
		Map: func(ctx *mapreduce.TaskContext, split mapreduce.InputSplit, emit mapreduce.Emitter) error {
			j := split.ID
			lo, hi := bandBounds(b.Cols, m0, j)
			if lo == hi {
				return nil
			}
			rd := nodeReader{fs: ctx.FS, node: ctx.Node}
			bband, err := rd.readMatrix(fmt.Sprintf("%s/B.%d", root, j))
			if err != nil {
				return err
			}
			l, err := hd.readL(rd)
			if err != nil {
				return err
			}
			u, err := hd.readU(rd)
			if err != nil {
				return err
			}
			// Forward: L Y = P B; backward: U X = Y (column-wise).
			x := perm.ApplyRows(bband)
			for c := 0; c < x.Cols; c++ {
				for i := 0; i < n; i++ {
					s := x.At(i, c)
					for t := 0; t < i; t++ {
						s -= l.At(i, t) * x.At(t, c)
					}
					x.Set(i, c, s)
				}
				for i := n - 1; i >= 0; i-- {
					s := x.At(i, c)
					for t := i + 1; t < n; t++ {
						s -= u.At(i, t) * x.At(t, c)
					}
					x.Set(i, c, s/u.At(i, i))
				}
			}
			ctx.IncrCounter("solve.columns", int64(hi-lo))
			return ctx.FS.WriteMatrix(fmt.Sprintf("%s/X.%d", root, j), x)
		},
	}
	job.TraceParent = st.span
	jr, err := p.Cluster.Run(job)
	if err != nil {
		return nil, err
	}
	st.recordJob(jr)

	out := matrix.New(n, b.Cols)
	rd := masterReader(p.FS)
	for j := 0; j < m0; j++ {
		lo, hi := bandBounds(b.Cols, m0, j)
		if lo == hi {
			continue
		}
		xband, err := rd.readMatrix(fmt.Sprintf("%s/X.%d", root, j))
		if err != nil {
			return nil, err
		}
		out.SetBlock(0, lo, xband)
	}
	return out, nil
}
