package core

import (
	"errors"
	"fmt"

	"repro/internal/lu"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// Block LU decomposition as a pipeline of MapReduce jobs (Section 4.2 and
// Algorithm 2). Each internal recursion node runs exactly one job whose
// mappers compute L2' and U2 (Equation 6, via triangular solves) and whose
// reducers compute B = A4 - L2'U2 with the block-wrap layout (Section 6.2,
// Figure 5). Leaves are decomposed on the master with Algorithm 1.

// computeLU decomposes the submatrix described by node and returns its
// factor handle. jobs are appended to st's counters as they run. The
// run's context is observed before every leaf decomposition and recursion
// level, so a canceled run stops between jobs rather than mid-pipeline.
func (st *pipelineState) computeLU(node *nodeInput) (*luHandle, error) {
	if err := st.runCtx().Err(); err != nil {
		return nil, fmt.Errorf("core: %s: %w", node.dir, err)
	}
	if node.n <= st.opts.NB {
		return st.masterLU(node)
	}
	h := splitPoint(node.n)
	a1, a2ref, a3ref, a4ref := node.quadrants()

	// Step 1: recurse on A1 (Algorithm 2 line 6).
	h1, err := st.computeLU(a1)
	if err != nil {
		return nil, err
	}

	// Step 2: one MapReduce job computes L2', U2 and B (lines 7-9).
	hd, err := st.runLevelJob(node, h, h1, a2ref, a3ref, a4ref)
	if err != nil {
		return nil, err
	}

	// Step 3: recurse on B (line 10). Its partitioning is metadata only
	// (Section 5.2): bRef slices are never materialized.
	bRef := hd.bRef
	bInput := &nodeInput{dir: node.dir + "/OUT", n: node.n - h, whole: &bRef}
	h2, err := st.computeLU(bInput)
	if err != nil {
		return nil, err
	}

	// Step 4: combine (lines 11-13). With separate files this is pure
	// metadata: the handle records children and band files; P = P1 ⊕ P2.
	out := &luHandle{
		n:  node.n,
		h:  h,
		h1: h1,
		h2: h2,
		l2: hd.l2,
		u2: hd.u2,
		p:  matrix.Augment(h1.p, h2.p),
	}
	if err := writePerm(st.fs, node.dir+"/p.bin", out.p); err != nil {
		return nil, err
	}
	if !st.opts.SeparateFiles {
		// Figure 7's unoptimized comparator: serially combine the factor
		// files on the master after every job.
		return st.combineLevel(node.dir, out)
	}
	return out, nil
}

// masterLU decomposes a leaf submatrix on the master node (Algorithm 2
// lines 2-3) and writes its l/u/p files.
func (st *pipelineState) masterLU(node *nodeInput) (*luHandle, error) {
	//mrlint:allow obsnames -- per-leaf trace spans carry the node directory; bounded by the recursion tree
	op := st.span.Child("master-lu:"+node.dir, obs.KindOp)
	defer op.Finish()
	op.SetAttr("order", int64(node.n))
	ref := node.leafRef()
	a, err := readAll(masterReader(st.fs), ref)
	if err != nil {
		return nil, fmt.Errorf("core: leaf %s: %w", node.dir, err)
	}
	f, err := lu.Decompose(a)
	if err != nil {
		if errors.Is(err, lu.ErrSingular) {
			// The block method pivots only inside diagonal blocks
			// (Section 4.2): a singular leaf does not necessarily mean a
			// singular input. Surface a typed error so callers can fall
			// back to a fully pivoted inverter.
			return nil, fmt.Errorf("core: leaf %s of order %d: %w", node.dir, node.n, ErrSingularBlock)
		}
		return nil, fmt.Errorf("core: leaf %s: %w", node.dir, err)
	}
	st.masterDecompositions++
	return st.writeLeaf(node.dir, f.L(), f.U(), f.P)
}

// writeLeaf stores explicit L and U factors (and P) as single files and
// returns a leaf handle. U is stored transposed under the Section 6.3
// optimization.
func (st *pipelineState) writeLeaf(dir string, l, u *matrix.Dense, p matrix.Perm) (*luHandle, error) {
	n := l.Rows
	hd := &luHandle{n: n, leaf: true, p: p}
	hd.lFile = blockFile{Path: dir + "/l.bin", R0: 0, R1: n, C0: 0, C1: n}
	if err := st.fs.WriteMatrix(hd.lFile.Path, l); err != nil {
		return nil, err
	}
	hd.uFile = blockFile{Path: dir + "/u.bin", R0: 0, R1: n, C0: 0, C1: n, Transposed: st.opts.TransposeU}
	stored := u
	if st.opts.TransposeU {
		stored = u.Transpose()
	}
	if err := st.fs.WriteMatrix(hd.uFile.Path, stored); err != nil {
		return nil, err
	}
	if err := writePerm(st.fs, dir+"/p.bin", p); err != nil {
		return nil, err
	}
	return hd, nil
}

// combineLevel reads the full L and U of a freshly computed level and
// rewrites them as single files — the serial master-side work the
// Section 6.1 optimization eliminates.
func (st *pipelineState) combineLevel(dir string, hd *luHandle) (*luHandle, error) {
	//mrlint:allow obsnames -- per-level trace spans carry the level directory; bounded by the recursion depth
	op := st.span.Child("combine:"+dir, obs.KindOp)
	defer op.Finish()
	rd := masterReader(st.fs)
	l, err := hd.readL(rd)
	if err != nil {
		return nil, err
	}
	u, err := hd.readU(rd)
	if err != nil {
		return nil, err
	}
	st.masterCombines++
	return st.writeLeaf(dir, l, u, hd.p)
}

// levelResult carries what one LU-level job produced.
type levelResult struct {
	l2   matRef
	u2   matRef
	bRef matRef
}

// runLevelJob executes the MapReduce job(s) of one internal node. Map
// task t < m0/2 solves row band t of L2' and map task m0/2 + b column
// band b of U2 (Equation 6); each band is stored as rho inner-segment
// pieces placed on the nodes that read them. The plan's reducers then
// form B = A4 - L2'U2 block by block on its g1 x g2 output grid: at
// rho = 1 the Section 6.2 block wrap of Figure 5 in the same single job,
// at rho >= 2 the multi-round strategies' extra rounds (runMulRounds).
func (st *pipelineState) runLevelJob(node *nodeInput, h int, h1 *luHandle, a2ref, a3ref, a4ref matRef) (*levelResult, error) {
	opts := st.opts
	m0 := opts.Nodes
	mhalf := m0 / 2
	nbot := node.n - h
	dir := node.dir
	pl := planMultiply(opts, nbot, h, nbot)
	geom := mulGeom{
		plan: pl, m0: m0,
		rows: nbot, inner: h, cols: nbot,
		root:    dir + "/OUT",
		durable: st.cluster.Faults != nil,
	}

	// pieces[t][s] is map task t's piece of inner segment s. The pieces
	// tile L2' and U2, so the next recursion level's region reads and the
	// final inversion see complete references. Each is placed on the
	// owners of every output band its fine band overlaps (fine bands need
	// not nest inside output bands when m0/2 is not a multiple of g1 or
	// g2); the table is built once per level.
	type piece struct {
		path  string
		nodes []int
	}
	res := &levelResult{
		l2: matRef{Rows: nbot, Cols: h},
		u2: matRef{Rows: h, Cols: nbot},
	}
	pieces := make([][]piece, m0)
	for t := range pieces {
		b, bands, outBand, readers, path := t, pl.g1, geom.rowBand, geom.aPieceReaders, dir+"/L2/L"
		if t >= mhalf {
			b, bands, outBand, readers, path = t-mhalf, pl.g2, geom.colBand, geom.btPieceReaders, dir+"/U2/U"
		}
		lo, hi := bandBounds(nbot, mhalf, b)
		if lo == hi {
			continue
		}
		pieces[t] = make([]piece, pl.rho)
		for s := range pieces[t] {
			klo, khi := geom.seg(s)
			if klo == khi {
				continue
			}
			var nodes []int // distinct output bands have disjoint owners
			for i := 0; i < bands; i++ {
				if olo, ohi := outBand(i); olo < hi && ohi > lo {
					nodes = append(nodes, readers(i, s)...)
				}
			}
			pieces[t][s] = piece{path: fmt.Sprintf("%s.%d.%d", path, b, s), nodes: geom.withBackup(nodes)}
			if t < mhalf {
				res.l2.Blocks = append(res.l2.Blocks, blockFile{Path: pieces[t][s].path, R0: lo, R1: hi, C0: klo, C1: khi})
			} else {
				res.u2.Blocks = append(res.u2.Blocks, blockFile{Path: pieces[t][s].path, R0: klo, R1: khi, C0: lo, C1: hi,
					Transposed: opts.TransposeU})
			}
		}
	}

	writePieces := func(ctx *mapreduce.TaskContext, t int) error {
		if pieces[t] == nil {
			return nil
		}
		rd := nodeReader{fs: ctx.FS, node: ctx.Node}
		var band *matrix.Dense
		var err error
		if t < mhalf {
			lo, hi := bandBounds(nbot, mhalf, t)
			if band, err = solveL2Band(rd, st, lo, hi, h1, a3ref); err != nil {
				return fmt.Errorf("core: L2' mapper %d: %w", t, err)
			}
			ctx.IncrCounter("l2.elements", int64(hi-lo)*int64(h))
		} else {
			lo, hi := bandBounds(nbot, mhalf, t-mhalf)
			if band, err = solveU2Band(rd, st, lo, hi, h1, a2ref); err != nil {
				return fmt.Errorf("core: U2 mapper %d: %w", t-mhalf, err)
			}
			if opts.TransposeU {
				band = band.Transpose()
			}
			ctx.IncrCounter("u2.elements", int64(hi-lo)*int64(h))
		}
		for s, pc := range pieces[t] {
			klo, khi := geom.seg(s)
			if klo == khi {
				continue
			}
			blk := band
			switch {
			case pl.rho == 1: // the whole band is the only piece
			case t < mhalf || opts.TransposeU: // inner dimension along the columns
				blk = band.Block(0, band.Rows, klo, khi)
			default:
				blk = band.Block(klo, khi, 0, band.Cols)
			}
			if err := ctx.FS.WriteMatrixFrom(pc.path, blk, ctx.Node, pc.nodes); err != nil {
				return err
			}
		}
		return nil
	}
	readA := func(rd nodeReader, i, s int) (*matrix.Dense, error) {
		rlo, rhi := geom.rowBand(i)
		klo, khi := geom.seg(s)
		return readRegion(rd, res.l2, rlo, rhi, klo, khi)
	}
	readBT := func(rd nodeReader, j, s int) (*matrix.Dense, error) {
		clo, chi := geom.colBand(j)
		klo, khi := geom.seg(s)
		return readRegionTransposed(rd, res.u2, clo, chi, klo, khi)
	}
	res.bRef = matRef{Rows: nbot, Cols: nbot}
	for i := 0; i < pl.g1; i++ {
		rlo, rhi := geom.rowBand(i)
		for j := 0; j < pl.g2; j++ {
			if clo, chi := geom.colBand(j); rlo != rhi && clo != chi {
				res.bRef.Blocks = append(res.bRef.Blocks, blockFile{
					Path: fmt.Sprintf("%s/OUT/A.%d", dir, geom.sumNode(i, j)), R0: rlo, R1: rhi, C0: clo, C1: chi,
				})
			}
		}
	}
	finish := func(ctx *mapreduce.TaskContext, i, j int, blk *matrix.Dense) error {
		rlo, rhi := geom.rowBand(i)
		clo, chi := geom.colBand(j)
		rd := nodeReader{fs: ctx.FS, node: ctx.Node}
		a4blk, err := readRegion(rd, a4ref, rlo, rhi, clo, chi)
		if err != nil {
			return fmt.Errorf("core: reducer (%d,%d) A4: %w", i, j, err)
		}
		if err := matrix.SubInPlace(a4blk, blk); err != nil {
			return err
		}
		ctx.IncrCounter("b.elements", int64(a4blk.Rows)*int64(a4blk.Cols))
		return ctx.FS.WriteMatrix(fmt.Sprintf("%s/OUT/A.%d", dir, geom.sumNode(i, j)), a4blk)
	}
	run := func(job *mapreduce.Job) error {
		job.Priority = opts.Priority
		job.TraceParent = st.span
		jr, err := st.cluster.RunCtx(st.runCtx(), job)
		if err != nil {
			return err
		}
		st.recordJob(jr)
		return nil
	}
	names := mulNames{first: "lu:" + dir, sum: "lu-sum:" + dir, round: "lu-round:" + dir}
	if err := runMulRounds(geom, names, run, writePieces, readA, readBT, finish); err != nil {
		return nil, err
	}
	return res, nil
}

// solveL2Band computes rows [lo, hi) of L2' from L2' U1 = A3
// (Equation 6, first line — a row-wise substitution against U1).
func solveL2Band(rd nodeReader, st *pipelineState, lo, hi int, h1 *luHandle, a3ref matRef) (*matrix.Dense, error) {
	a3band, err := readRegion(rd, a3ref, lo, hi, 0, a3ref.Cols)
	if err != nil {
		return nil, err
	}
	if st.opts.TransposeU {
		ut, err := h1.readUT(rd)
		if err != nil {
			return nil, err
		}
		return lu.SolveRowsUpperTrans(ut, a3band)
	}
	u1, err := h1.readU(rd)
	if err != nil {
		return nil, err
	}
	return lu.SolveRowsUpper(u1, a3band)
}

// solveU2Band computes columns [lo, hi) of U2 from L1 U2 = P1 A2
// (Equation 6, second line — forward substitution with unit L1),
// returned in natural (untransposed) orientation.
func solveU2Band(rd nodeReader, st *pipelineState, lo, hi int, h1 *luHandle, a2ref matRef) (*matrix.Dense, error) {
	a2band, err := readRegion(rd, a2ref, 0, a2ref.Rows, lo, hi)
	if err != nil {
		return nil, err
	}
	l1, err := h1.readL(rd)
	if err != nil {
		return nil, err
	}
	return lu.ForwardSubstMatrix(l1, h1.p.ApplyRows(a2band), true)
}

// readRegionTransposed reads rows [clo, chi) x cols [klo, khi) of the
// transpose of a U2 reference, decoding each file straight into the
// transposed orientation (a no-op for files already stored transposed).
// In the transposed frame rows index U2's columns and columns index U2's
// rows, so the multi-round segment reads pass the inner-dimension
// segment as [klo, khi).
func readRegionTransposed(rd nodeReader, u2 matRef, clo, chi, klo, khi int) (*matrix.Dense, error) {
	out := matrix.New(chi-clo, khi-klo)
	if err := readRegionInto(rd, u2, klo, khi, clo, chi, out, 0, 0, true); err != nil {
		return nil, err
	}
	return out, nil
}
