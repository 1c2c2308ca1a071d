package core

import (
	"fmt"

	"repro/internal/matrix"
)

// luHandle describes where the factors of one (sub)decomposition live in
// the distributed file system. It is the master-side bookkeeping the paper
// keeps in small index files: factor data itself stays distributed across
// the N(d) separate files of Section 6.1 and is only assembled when a task
// reads it.
//
// A leaf handle points at the single l/u/p files written after a
// master-node decomposition (Algorithm 1). An internal handle points at
// its two child handles plus the L2' and U2 band files produced by the
// node's MapReduce job; following Section 5.3, L2 = P2 L2' is never
// materialized — the permutation is applied as the factor is read.
type luHandle struct {
	n    int
	leaf bool

	// Leaf storage.
	lFile, uFile blockFile

	// Internal node storage.
	h  int // split point: A1 is h x h
	h1 *luHandle
	h2 *luHandle
	l2 matRef // (n-h) x h frame, unpermuted L2' bands
	u2 matRef // h x (n-h) frame, U2 bands (Transposed flags per file)

	// p is this (sub)matrix's combined row permutation.
	p matrix.Perm
}

// fileCount returns the number of files storing one triangular factor
// under this handle — the quantity N(d) of Section 6.1.
func (hd *luHandle) fileCount() int {
	if hd.leaf {
		return 1
	}
	return hd.h1.fileCount() + hd.h2.fileCount() + len(hd.l2.Blocks)
}

// leafRef wraps a leaf's single factor file as an n x n reference.
func (hd *luHandle) leafRef(f blockFile) matRef {
	return matRef{Rows: hd.n, Cols: hd.n, Blocks: []blockFile{f}}
}

// readL assembles the full unit lower triangular factor L.
func (hd *luHandle) readL(rd nodeReader) (*matrix.Dense, error) {
	out := matrix.New(hd.n, hd.n)
	if err := hd.readLInto(rd, out, 0); err != nil {
		return nil, fmt.Errorf("core: readL: %w", err)
	}
	return out, nil
}

// readLInto decodes L into dst's diagonal square starting at (off, off).
// Internal nodes recurse into the same destination for L1 and L3 and
// permute L2' by P2 on the way in ("L2 is constructed only as it is read
// from HDFS", Section 5.3).
func (hd *luHandle) readLInto(rd nodeReader, dst *matrix.Dense, off int) error {
	if hd.leaf {
		return readRegionInto(rd, hd.leafRef(hd.lFile), 0, hd.n, 0, hd.n, dst, off, off, false)
	}
	if err := hd.h1.readLInto(rd, dst, off); err != nil {
		return err
	}
	l2p, err := readAll(rd, hd.l2)
	if err != nil {
		return fmt.Errorf("L2': %w", err)
	}
	for i, src := range hd.h2.p {
		copy(dst.Row(off + hd.h + i)[off:off+hd.h], l2p.Row(src))
	}
	return hd.h2.readLInto(rd, dst, off+hd.h)
}

// readU assembles the full upper triangular factor U in normal
// orientation (transposed storage is undone by the decode).
func (hd *luHandle) readU(rd nodeReader) (*matrix.Dense, error) {
	out := matrix.New(hd.n, hd.n)
	if err := hd.readUInto(rd, out, 0, false); err != nil {
		return nil, fmt.Errorf("core: readU: %w", err)
	}
	return out, nil
}

// readUT assembles U^T, the operand of the transposed solve kernel and of
// the U^-1 mappers. With Section 6.3's transposed storage it is
// U1^T | U2^T | U3^T decoded as stored.
func (hd *luHandle) readUT(rd nodeReader) (*matrix.Dense, error) {
	out := matrix.New(hd.n, hd.n)
	if err := hd.readUInto(rd, out, 0, true); err != nil {
		return nil, fmt.Errorf("core: readUT: %w", err)
	}
	return out, nil
}

// readUInto decodes U (U^T with transpose) into dst's diagonal square
// starting at (off, off).
func (hd *luHandle) readUInto(rd nodeReader, dst *matrix.Dense, off int, transpose bool) error {
	if hd.leaf {
		return readRegionInto(rd, hd.leafRef(hd.uFile), 0, hd.n, 0, hd.n, dst, off, off, transpose)
	}
	if err := hd.h1.readUInto(rd, dst, off, transpose); err != nil {
		return err
	}
	r, c := off, off+hd.h
	if transpose {
		r, c = c, r
	}
	if err := readRegionInto(rd, hd.u2, 0, hd.u2.Rows, 0, hd.u2.Cols, dst, r, c, transpose); err != nil {
		return fmt.Errorf("U2: %w", err)
	}
	return hd.h2.readUInto(rd, dst, off+hd.h, transpose)
}
