package core

import (
	"fmt"
	"sort"

	"repro/internal/lu"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// The final MapReduce job (Section 5.4): mappers invert the triangular
// factors column-independently (Equation 4) — half of them computing
// interleaved columns of L^-1, the other half interleaved rows of U^-1
// (as columns of (U^T)^-1) — and reducers multiply U^-1 L^-1 on a grid of
// discrete rows x discrete columns (block wrap over interleaved index
// classes, which balances load because triangular work varies by index),
// applying the pivot permutation to produce A^-1.
//
// Permutation convention: from PA = LU it follows that
// A^-1 = U^-1 L^-1 P, a *column* permutation of the product — column k of
// U^-1 L^-1 becomes column p[k] of A^-1, which is what the reducers
// apply. (The paper's Section 4.3 one-liner "[A^-1][S]ij = sum U^-1ik
// L^-1kj" reads as a row scatter; with their S defined as "the permuted
// row number for the i-th row" the two statements coincide — the
// convention here is the one verified by the A*A^-1 = I tests.)

// runInvertJob executes the job and assembles the final inverse.
func (st *pipelineState) runInvertJob(hd *luHandle) (*matrix.Dense, error) {
	m0 := st.opts.Nodes
	mhalf := m0 / 2
	n := hd.n
	f1, f2 := FactorPair(m0)
	if !st.opts.BlockWrap {
		f1, f2 = m0, 1
	}
	root := st.opts.Root
	p := hd.p

	job := &mapreduce.Job{
		Name:      "invert",
		Splits:    mapreduce.ControlSplits(m0),
		NumReduce: m0,
		Priority:  st.opts.Priority,
		Partition: func(key string, nred int) int {
			var v int
			fmt.Sscanf(key, "%d", &v)
			return v % nred
		},
		Map: func(ctx *mapreduce.TaskContext, split mapreduce.InputSplit, emit mapreduce.Emitter) error {
			j := split.ID
			rd := nodeReader{fs: ctx.FS, node: ctx.Node}
			if j < mhalf {
				if err := invertLColumns(rd, st, root, j, mhalf, f2, hd); err != nil {
					return err
				}
			} else {
				if err := invertURows(rd, st, root, j-mhalf, mhalf, f1, hd); err != nil {
					return err
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
			return multiplyInverseBlock(nodeReader{fs: ctx.FS, node: ctx.Node}, st, root, r, mhalf, f1, f2, n, p)
		},
	}
	job.TraceParent = st.span
	jr, err := st.cluster.RunCtx(st.runCtx(), job)
	if err != nil {
		return nil, err
	}
	st.recordJob(jr)

	// Assemble A^-1 from the reducers' indexed output blocks.
	aspan := st.span.Child("assemble_output", obs.KindOp)
	defer aspan.Finish()
	out := matrix.New(n, n)
	rd := masterReader(st.fs)
	for r := 0; r < m0; r++ {
		path := fmt.Sprintf("%s/INV/A.%d", root, r)
		if !st.fs.Exists(path) {
			continue // empty grid cell (more nodes than rows)
		}
		blk, err := readIndexed(rd, path)
		if err != nil {
			return nil, err
		}
		for bi, gi := range blk.RowIdx {
			row := blk.Data.Row(bi)
			for bj, gj := range blk.ColIdx {
				out.Set(gi, gj, row[bj])
			}
		}
	}
	return out, nil
}

// interleaved returns the sorted indices {k : k ≡ j (mod m), k < n} — the
// paper's balanced assignment of non-contiguous columns to node j.
func interleaved(n, m, j int) []int {
	var out []int
	for k := j; k < n; k += m {
		out = append(out, k)
	}
	return out
}

// invertLColumns computes L-mapper j's interleaved columns of L^-1 and
// writes them grouped by column residue class mod f2, so that reducer
// column-group t reads exactly the files ending in .t. Each column is
// stored as one contiguous row, the form the inversion kernel produces
// and the reducers' row-dot product consumes.
func invertLColumns(rd nodeReader, st *pipelineState, root string, j, mhalf, f2 int, hd *luHandle) error {
	n := hd.n
	cols := interleaved(n, mhalf, j)
	var compact *matrix.Dense
	if st.opts.StreamingInversion {
		var err error
		compact, _, err = streamLowerInverseColumns(func(r0, r1 int) (*matrix.Dense, error) {
			return hd.readLRows(rd, r0, r1)
		}, n, cols, true, streamBandRows(n, st.opts.Nodes))
		if err != nil {
			return err
		}
	} else {
		l, err := hd.readL(rd)
		if err != nil {
			return err
		}
		compact = lu.LowerInverseColumns(l, cols, true)
	}
	return writeInterleavedGroups(st, fmt.Sprintf("%s/LINV/L.%d", root, j), compact, cols, f2)
}

// invertURows computes U-mapper j's interleaved rows of U^-1 by inverting
// the corresponding columns of (U^T)^-1 (the Section 4.1 transpose trick),
// grouped by row residue class mod f1.
func invertURows(rd nodeReader, st *pipelineState, root string, j, mhalf, f1 int, hd *luHandle) error {
	n := hd.n
	rows := interleaved(n, mhalf, j)
	var compact *matrix.Dense
	if st.opts.StreamingInversion {
		var err error
		compact, _, err = streamLowerInverseColumns(func(r0, r1 int) (*matrix.Dense, error) {
			return hd.readUTRows(rd, r0, r1)
		}, n, rows, false, streamBandRows(n, st.opts.Nodes))
		if err != nil {
			return err
		}
	} else {
		ut, err := hd.readUT(rd)
		if err != nil {
			return err
		}
		// Column r of (U^T)^-1 is row r of U^-1.
		compact = lu.LowerInverseColumns(ut, rows, false)
	}
	return writeInterleavedGroups(st, fmt.Sprintf("%s/UINV/U.%d", root, j), compact, rows, f1)
}

// streamBandRows picks the streaming band height: one m0-th of the order,
// at least one row.
func streamBandRows(n, m0 int) int {
	b := n / m0
	if b < 1 {
		b = 1
	}
	return b
}

// writeInterleavedGroups splits the compact block (row bi is the inverse
// column or row with global index idx[bi]) into residue classes mod m and
// writes one indexed file per non-empty class.
func writeInterleavedGroups(st *pipelineState, base string, compact *matrix.Dense, idx []int, m int) error {
	for t := 0; t < m; t++ {
		var group []int
		for _, c := range idx {
			if c%m == t {
				group = append(group, c)
			}
		}
		if len(group) == 0 {
			continue
		}
		block := matrix.New(len(group), compact.Cols)
		gi := 0
		for bi, c := range idx {
			if c%m == t {
				copy(block.Row(gi), compact.Row(bi))
				gi++
			}
		}
		if err := writeIndexed(st.fs, fmt.Sprintf("%s.%d", base, t), indexedBlock{RowIdx: group, Data: block}); err != nil {
			return err
		}
	}
	return nil
}

// gatherInverseRows reads residue-class file t of every mapper under base
// and stacks the indexed rows (U^-1 rows, or L^-1 columns stored as rows)
// in ascending global order, decoding each row from its file's stored
// bytes straight into its place.
func gatherInverseRows(rd nodeReader, st *pipelineState, base string, mhalf, t, n int) ([]int, *matrix.Dense, error) {
	type storedRow struct {
		idx, at int // global index; row number within payload
		payload []byte
	}
	var rows []storedRow
	for i := 0; i < mhalf; i++ {
		path := fmt.Sprintf("%s.%d.%d", base, i, t)
		if !st.fs.Exists(path) {
			continue
		}
		rowIdx, _, payload, err := readIndexedHeader(rd, path)
		if err != nil {
			return nil, nil, err
		}
		r, c, err := matrix.BinaryDims(payload)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %s payload: %w", path, err)
		}
		if r != len(rowIdx) || c != n {
			return nil, nil, fmt.Errorf("core: %s: %d indices for a %dx%d payload of order %d", path, len(rowIdx), r, c, n)
		}
		for bi, gidx := range rowIdx {
			rows = append(rows, storedRow{gidx, bi, payload})
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].idx < rows[b].idx })
	idx := make([]int, len(rows))
	stacked := matrix.New(len(rows), n)
	for bi, r := range rows {
		idx[bi] = r.idx
		if err := matrix.DecodeBinaryRegion(r.payload, r.at, r.at+1, 0, n, stacked, bi, 0, false); err != nil {
			return nil, nil, err
		}
	}
	return idx, stacked, nil
}

// multiplyInverseBlock computes reducer r's grid block of U^-1 L^-1: rows
// of U^-1 with index ≡ r/f2 (mod f1) times columns of L^-1 with index
// ≡ r%f2 (mod f2). Row i of U^-1 is zero before column i and column j of
// L^-1 is zero before row j, so each inner product starts at max(i, j).
// The result columns are scattered through the pivot permutation P
// (A^-1 = U^-1 L^-1 P) and written as an indexed block.
func multiplyInverseBlock(rd nodeReader, st *pipelineState, root string, r, mhalf, f1, f2, n int, p matrix.Perm) error {
	rg, cg := r/f2, r%f2
	uRows, uinv, err := gatherInverseRows(rd, st, root+"/UINV/U", mhalf, rg, n)
	if err != nil {
		return err
	}
	lCols, linvT, err := gatherInverseRows(rd, st, root+"/LINV/L", mhalf, cg, n)
	if err != nil {
		return err
	}
	if len(uRows) == 0 || len(lCols) == 0 {
		return nil
	}
	// C[i][j] = dot(U^-1 row i, L^-1 col j); final column index is p[j].
	out, err := matrix.MulTransBSkip(uinv, linvT, uRows, lCols)
	if err != nil {
		return err
	}
	colIdx := make([]int, len(lCols))
	for bj, c := range lCols {
		colIdx[bj] = p[c]
	}
	return writeIndexed(st.fs, fmt.Sprintf("%s/INV/A.%d", root, r),
		indexedBlock{RowIdx: uRows, ColIdx: colIdx, Data: out})
}
