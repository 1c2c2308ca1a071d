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

// runLevelJob executes the MapReduce job of one internal node: mappers
// j < m0/2 compute L2' row bands, mappers j >= m0/2 compute U2 column
// bands, and reducer j computes block j of B = A4 - L2'U2 (Figure 5).
func (st *pipelineState) runLevelJob(node *nodeInput, h int, h1 *luHandle, a2ref, a3ref, a4ref matRef) (*levelResult, error) {
	m0 := st.opts.Nodes
	mhalf := m0 / 2
	nbot := node.n - h
	dir := node.dir
	opts := st.opts
	if pl := planMultiply(opts, nbot, h, nbot); pl.rho >= 2 {
		// A multi-round strategy routes the B = A4 - L2'U2 product through
		// the communication-optimal runner instead of the single job.
		return st.runLevelJobMulti(node, h, h1, a2ref, a3ref, a4ref, pl)
	}

	// Band layout is deterministic, so the master can precompute the
	// references the reducers and the next recursion level will read.
	res := &levelResult{
		l2: matRef{Rows: nbot, Cols: h},
		u2: matRef{Rows: h, Cols: nbot},
	}
	for j := 0; j < mhalf; j++ {
		if lo, hi := bandBounds(nbot, mhalf, j); lo != hi {
			res.l2.Blocks = append(res.l2.Blocks, blockFile{
				Path: fmt.Sprintf("%s/L2/L.%d", dir, j), R0: lo, R1: hi, C0: 0, C1: h,
			})
		}
		if lo, hi := bandBounds(nbot, mhalf, j); lo != hi {
			res.u2.Blocks = append(res.u2.Blocks, blockFile{
				Path: fmt.Sprintf("%s/U2/U.%d", dir, j), R0: 0, R1: h, C0: lo, C1: hi,
				Transposed: opts.TransposeU,
			})
		}
	}
	f1, f2 := FactorPair(m0)
	if !opts.BlockWrap {
		f1, f2 = m0, 1
	}
	res.bRef = matRef{Rows: nbot, Cols: nbot}
	for r := 0; r < m0; r++ {
		rg, cg := r/f2, r%f2
		rlo, rhi := bandBounds(nbot, f1, rg)
		clo, chi := bandBounds(nbot, f2, cg)
		if rlo == rhi || clo == chi {
			continue
		}
		res.bRef.Blocks = append(res.bRef.Blocks, blockFile{
			Path: fmt.Sprintf("%s/OUT/A.%d", dir, r), R0: rlo, R1: rhi, C0: clo, C1: chi,
		})
	}

	job := &mapreduce.Job{
		Name:      "lu:" + dir,
		Splits:    mapreduce.ControlSplits(m0),
		NumReduce: m0,
		Priority:  st.opts.Priority,
		Partition: func(key string, n int) int {
			var v int
			fmt.Sscanf(key, "%d", &v)
			return v % n
		},
		Map: func(ctx *mapreduce.TaskContext, split mapreduce.InputSplit, emit mapreduce.Emitter) error {
			j := split.ID
			rd := nodeReader{fs: ctx.FS, node: ctx.Node}
			if j < mhalf {
				if err := computeL2Band(rd, st, dir, j, mhalf, nbot, h1, a3ref); err != nil {
					return err
				}
				if lo, hi := bandBounds(nbot, mhalf, j); hi > lo {
					ctx.IncrCounter("l2.elements", int64(hi-lo)*int64(h))
				}
			} else {
				if err := computeU2Band(rd, st, dir, j-mhalf, mhalf, nbot, h1, a2ref); err != nil {
					return err
				}
				if lo, hi := bandBounds(nbot, mhalf, j-mhalf); hi > lo {
					ctx.IncrCounter("u2.elements", int64(hi-lo)*int64(h))
				}
			}
			emit.Emit(fmt.Sprintf("%d", j), nil)
			return nil
		},
		Reduce: func(ctx *mapreduce.TaskContext, key string, values [][]byte, emit mapreduce.Emitter) error {
			var r int
			if _, err := fmt.Sscanf(key, "%d", &r); err != nil {
				return err
			}
			if err := computeBBlock(nodeReader{fs: ctx.FS, node: ctx.Node}, st, dir, r, f1, f2, nbot, a4ref, res); err != nil {
				return err
			}
			rg, cg := r/f2, r%f2
			rlo, rhi := bandBounds(nbot, f1, rg)
			clo, chi := bandBounds(nbot, f2, cg)
			if rhi > rlo && chi > clo {
				ctx.IncrCounter("b.elements", int64(rhi-rlo)*int64(chi-clo))
			}
			return nil
		},
	}
	job.TraceParent = st.span
	jr, err := st.cluster.RunCtx(st.runCtx(), job)
	if err != nil {
		return nil, err
	}
	st.recordJob(jr)
	return res, nil
}

// runLevelJobMulti executes one internal node's level with a multi-round
// multiply strategy: the mappers of the first round solve the L2' / U2
// fine bands exactly as runLevelJob's do, but store them as fine band x
// inner-segment slices placed on their reader nodes, and the runner's
// rounds compute B = A4 - L2'U2 block by block on the plan's g1 x g2
// output grid.
func (st *pipelineState) runLevelJobMulti(node *nodeInput, h int, h1 *luHandle, a2ref, a3ref, a4ref matRef, pl mulPlan) (*levelResult, error) {
	m0 := st.opts.Nodes
	mhalf := m0 / 2
	nbot := node.n - h
	dir := node.dir

	geom := mulGeom{
		plan: pl, m0: m0,
		rows: nbot, inner: h, cols: nbot,
		root:    dir + "/OUT",
		durable: st.cluster.Faults != nil,
	}

	// The factor pieces tile L2' and U2 as fine band x segment slices, so
	// the next recursion level's region reads and the final inversion see
	// complete references; U2 slices are always stored transposed so the
	// accumulation rounds use the Equation 8 row-dot kernel.
	res := &levelResult{
		l2: matRef{Rows: nbot, Cols: h},
		u2: matRef{Rows: h, Cols: nbot},
	}
	for b := 0; b < mhalf; b++ {
		lo, hi := bandBounds(nbot, mhalf, b)
		if lo == hi {
			continue
		}
		for s := 0; s < pl.rho; s++ {
			klo, khi := geom.seg(s)
			if klo == khi {
				continue
			}
			res.l2.Blocks = append(res.l2.Blocks, blockFile{
				Path: fmt.Sprintf("%s/L2/L.%d.%d", dir, b, s), R0: lo, R1: hi, C0: klo, C1: khi,
			})
			res.u2.Blocks = append(res.u2.Blocks, blockFile{
				Path: fmt.Sprintf("%s/U2/U.%d.%d", dir, b, s), R0: klo, R1: khi, C0: lo, C1: hi,
				Transposed: true,
			})
		}
	}
	res.bRef = matRef{Rows: nbot, Cols: nbot}
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
			res.bRef.Blocks = append(res.bRef.Blocks, blockFile{
				Path: fmt.Sprintf("%s/OUT/A.%d", dir, i*pl.g2+j), R0: rlo, R1: rhi, C0: clo, C1: chi,
			})
		}
	}

	// l2Readers / u2Readers list the nodes reading one fine piece: the
	// owners of every coarse output band overlapping it (fine bands need
	// not nest inside coarse bands when mhalf is not a multiple of g1).
	l2Readers := func(lo, hi, s int) []int {
		var nodes []int
		seen := make(map[int]bool)
		for i := 0; i < pl.g1; i++ {
			rlo, rhi := geom.rowBand(i)
			if rhi <= lo || rlo >= hi {
				continue
			}
			for _, nd := range geom.aPieceReaders(i, s) {
				if !seen[nd] {
					seen[nd] = true
					nodes = append(nodes, nd)
				}
			}
		}
		return nodes
	}
	u2Readers := func(lo, hi, s int) []int {
		var nodes []int
		seen := make(map[int]bool)
		for j := 0; j < pl.g2; j++ {
			clo, chi := geom.colBand(j)
			if chi <= lo || clo >= hi {
				continue
			}
			for _, nd := range geom.btPieceReaders(j, s) {
				if !seen[nd] {
					seen[nd] = true
					nodes = append(nodes, nd)
				}
			}
		}
		return nodes
	}
	// Pin each band solver onto the first reader of its segment-0 piece so
	// at least one slice per band is written locally.
	geom.mapPrefer = func(t int) []int {
		b, readers := t, l2Readers
		if t >= mhalf {
			b, readers = t-mhalf, u2Readers
		}
		if lo, hi := bandBounds(nbot, mhalf, b); lo != hi {
			if nodes := readers(lo, hi, 0); len(nodes) > 0 {
				return []int{nodes[0]}
			}
		}
		return []int{t % m0}
	}

	writePieces := func(ctx *mapreduce.TaskContext, t int) error {
		rd := nodeReader{fs: ctx.FS, node: ctx.Node}
		if t < mhalf {
			lo, hi := bandBounds(nbot, mhalf, t)
			if lo == hi {
				return nil
			}
			band, err := solveL2Band(rd, st, lo, hi, h1, a3ref)
			if err != nil {
				return fmt.Errorf("core: L2' mapper %d: %w", t, err)
			}
			for s := 0; s < pl.rho; s++ {
				klo, khi := geom.seg(s)
				if klo == khi {
					continue
				}
				if err := ctx.FS.WriteMatrixFrom(fmt.Sprintf("%s/L2/L.%d.%d", dir, t, s),
					band.Block(0, hi-lo, klo, khi), ctx.Node,
					geom.withBackup(l2Readers(lo, hi, s))); err != nil {
					return err
				}
			}
			ctx.IncrCounter("l2.elements", int64(hi-lo)*int64(h))
			return nil
		}
		b := t - mhalf
		lo, hi := bandBounds(nbot, mhalf, b)
		if lo == hi {
			return nil
		}
		band, err := solveU2Band(rd, st, lo, hi, h1, a2ref)
		if err != nil {
			return fmt.Errorf("core: U2 mapper %d: %w", b, err)
		}
		bandT := band.Transpose()
		for s := 0; s < pl.rho; s++ {
			klo, khi := geom.seg(s)
			if klo == khi {
				continue
			}
			if err := ctx.FS.WriteMatrixFrom(fmt.Sprintf("%s/U2/U.%d.%d", dir, b, s),
				bandT.Block(0, hi-lo, klo, khi), ctx.Node,
				geom.withBackup(u2Readers(lo, hi, s))); err != nil {
				return err
			}
		}
		ctx.IncrCounter("u2.elements", int64(hi-lo)*int64(h))
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
		return ctx.FS.WriteMatrix(fmt.Sprintf("%s/OUT/A.%d", dir, i*pl.g2+j), a4blk)
	}
	run := func(job *mapreduce.Job) error {
		job.Priority = st.opts.Priority
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

// computeL2Band solves fine band j of L2' and stores it as one file.
func computeL2Band(rd nodeReader, st *pipelineState, dir string, j, mhalf, nbot int, h1 *luHandle, a3ref matRef) error {
	lo, hi := bandBounds(nbot, mhalf, j)
	if lo == hi {
		return nil
	}
	band, err := solveL2Band(rd, st, lo, hi, h1, a3ref)
	if err != nil {
		return fmt.Errorf("core: L2' mapper %d: %w", j, err)
	}
	return st.fs.WriteMatrix(fmt.Sprintf("%s/L2/L.%d", dir, j), band)
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

// computeU2Band solves fine band j of U2 and stores it as one file,
// transposed under the Section 6.3 optimization.
func computeU2Band(rd nodeReader, st *pipelineState, dir string, j, mhalf, nbot int, h1 *luHandle, a2ref matRef) error {
	lo, hi := bandBounds(nbot, mhalf, j)
	if lo == hi {
		return nil
	}
	band, err := solveU2Band(rd, st, lo, hi, h1, a2ref)
	if err != nil {
		return fmt.Errorf("core: U2 mapper %d: %w", j, err)
	}
	if st.opts.TransposeU {
		band = band.Transpose()
	}
	return st.fs.WriteMatrix(fmt.Sprintf("%s/U2/U.%d", dir, j), band)
}

// computeBBlock computes one block-wrap block of B = A4 - L2'U2
// (Figure 5's reduce side) and writes it to OUT/A.<r>.
func computeBBlock(rd nodeReader, st *pipelineState, dir string, r, f1, f2, nbot int, a4ref matRef, res *levelResult) error {
	rg, cg := r/f2, r%f2
	rlo, rhi := bandBounds(nbot, f1, rg)
	clo, chi := bandBounds(nbot, f2, cg)
	if rlo == rhi || clo == chi {
		return nil
	}
	a4blk, err := readRegion(rd, a4ref, rlo, rhi, clo, chi)
	if err != nil {
		return fmt.Errorf("core: reducer %d A4: %w", r, err)
	}
	l2rows, err := readRegion(rd, res.l2, rlo, rhi, 0, res.l2.Cols)
	if err != nil {
		return fmt.Errorf("core: reducer %d L2': %w", r, err)
	}
	var prod *matrix.Dense
	if st.opts.TransposeU {
		// Read the needed U2 columns in transposed orientation and use the
		// Equation 8 row-dot kernel (Section 6.3).
		u2t, err := readRegionTransposed(rd, res.u2, clo, chi, 0, res.u2.Rows)
		if err != nil {
			return fmt.Errorf("core: reducer %d U2^T: %w", r, err)
		}
		prod, err = matrix.MulTransB(l2rows, u2t)
		if err != nil {
			return err
		}
	} else {
		u2cols, err := readRegion(rd, res.u2, 0, res.u2.Rows, clo, chi)
		if err != nil {
			return fmt.Errorf("core: reducer %d U2: %w", r, err)
		}
		// Unoptimized column-walk kernel (Equation 7).
		prod, err = matrix.MulNaiveColumnOrder(l2rows, u2cols)
		if err != nil {
			return err
		}
	}
	if err := matrix.SubInPlace(a4blk, prod); err != nil {
		return err
	}
	return st.fs.WriteMatrix(fmt.Sprintf("%s/OUT/A.%d", dir, r), a4blk)
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
