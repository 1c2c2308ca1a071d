package core

import (
	"fmt"

	"repro/internal/lu"
	"repro/internal/matrix"
)

// Streaming factor access. The paper's triangular-inversion mappers run on
// 3.7 GB instances against factors of up to 42 GB, so they cannot hold a
// full factor: they read the N(d) factor files progressively ("these
// files are read into memory recursively", Section 6.1). This file
// implements that access pattern: row bands of L (and of U^T) are
// assembled on demand, and the column-independent Equation 4 recurrences
// consume the factor one band at a time, keeping only the output columns
// and the current band resident.

// readLRows assembles rows [r0, r1) of the unit lower factor: a
// (r1-r0) x n matrix. Leaf files are at most nb x nb, so peak extra
// memory is one band plus one L2' row range.
func (hd *luHandle) readLRows(rd nodeReader, r0, r1 int) (*matrix.Dense, error) {
	if r0 < 0 || r1 > hd.n || r0 > r1 {
		return nil, fmt.Errorf("core: readLRows [%d:%d) of order %d", r0, r1, hd.n)
	}
	out := matrix.New(r1-r0, hd.n)
	if err := hd.readLRowsInto(rd, r0, r1, out, 0, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// readLRowsInto decodes rows [r0, r1) of L into dst with the band's first
// element at dst (dr, dc).
func (hd *luHandle) readLRowsInto(rd nodeReader, r0, r1 int, dst *matrix.Dense, dr, dc int) error {
	if r0 == r1 {
		return nil
	}
	if hd.leaf {
		return readRegionInto(rd, hd.leafRef(hd.lFile), r0, r1, 0, hd.n, dst, dr, dc, false)
	}
	h := hd.h
	if r0 < h {
		if err := hd.h1.readLRowsInto(rd, r0, min(r1, h), dst, dr, dc); err != nil {
			return err
		}
	}
	if r1 <= h {
		return nil
	}
	blo, bhi := max(r0, h)-h, r1-h
	// Rows blo..bhi of the bottom half: [P2 L2' | L3]. Row i of P2 L2'
	// is row p2[i] of L2'; fetch the covering range once and gather.
	p2 := hd.h2.p
	lo, hi := hd.n, 0
	for i := blo; i < bhi; i++ {
		lo, hi = min(lo, p2[i]), max(hi, p2[i]+1)
	}
	l2rows, err := readRegion(rd, hd.l2, lo, hi, 0, h)
	if err != nil {
		return err
	}
	at := dr + max(r0, h) - r0
	for i := blo; i < bhi; i++ {
		copy(dst.Row(at + i - blo)[dc:dc+h], l2rows.Row(p2[i]-lo))
	}
	return hd.h2.readLRowsInto(rd, blo, bhi, dst, at, dc+h)
}

// readUTRows assembles rows [r0, r1) of U^T (i.e. columns of U): the unit
// the U-inversion mappers stream.
func (hd *luHandle) readUTRows(rd nodeReader, r0, r1 int) (*matrix.Dense, error) {
	if r0 < 0 || r1 > hd.n || r0 > r1 {
		return nil, fmt.Errorf("core: readUTRows [%d:%d) of order %d", r0, r1, hd.n)
	}
	out := matrix.New(r1-r0, hd.n)
	if err := hd.readUTRowsInto(rd, r0, r1, out, 0, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// readUTRowsInto decodes rows [r0, r1) of U^T = [[U1^T, 0], [U2^T, U3^T]]
// into dst with the band's first element at dst (dr, dc).
func (hd *luHandle) readUTRowsInto(rd nodeReader, r0, r1 int, dst *matrix.Dense, dr, dc int) error {
	if r0 == r1 {
		return nil
	}
	if hd.leaf {
		return readRegionInto(rd, hd.leafRef(hd.uFile), 0, hd.n, r0, r1, dst, dr, dc, true)
	}
	h := hd.h
	if r0 < h {
		if err := hd.h1.readUTRowsInto(rd, r0, min(r1, h), dst, dr, dc); err != nil {
			return err
		}
	}
	if r1 <= h {
		return nil
	}
	// Rows of U^T below h are columns blo..bhi of U2 alongside rows of U3^T.
	blo, bhi := max(r0, h)-h, r1-h
	at := dr + max(r0, h) - r0
	if err := readRegionInto(rd, hd.u2, 0, hd.u2.Rows, blo, bhi, dst, at, dc, true); err != nil {
		return err
	}
	return hd.h2.readUTRowsInto(rd, blo, bhi, dst, at, dc+h)
}

// bandReader yields consecutive row bands of a factor.
type bandReader func(r0, r1 int) (*matrix.Dense, error)

// streamStats reports a streaming inversion's memory behaviour.
type streamStats struct {
	bands     int
	peakElems int // largest simultaneously-resident element count
}

// streamLowerInverseColumns computes the given columns of the inverse of
// a unit (or general) lower triangular factor of order n, reading the
// factor in row bands of height bandRows and keeping only the current
// band plus the output columns in memory (Equation 4, streamed). The
// result has lu.LowerInverseColumns' layout: row bi is column cols[bi].
func streamLowerInverseColumns(read bandReader, n int, cols []int, unitDiagonal bool, bandRows int) (*matrix.Dense, *streamStats, error) {
	if bandRows < 1 {
		bandRows = 1
	}
	out := matrix.New(len(cols), n)
	st := &streamStats{}
	for r0 := 0; r0 < n; r0 += bandRows {
		band, err := read(r0, min(r0+bandRows, n))
		if err != nil {
			return nil, nil, err
		}
		st.bands++
		st.peakElems = max(st.peakElems, band.Rows*band.Cols+out.Rows*out.Cols)
		lu.InvertLowerRows(band, r0, cols, unitDiagonal, out)
	}
	return out, st, nil
}
