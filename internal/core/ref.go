package core

import (
	"fmt"

	"repro/internal/dfs"
	"repro/internal/matrix"
)

// blockFile records that a stored file holds the submatrix covering rows
// [R0, R1) and columns [C0, C1) of some enclosing coordinate frame.
type blockFile struct {
	Path           string
	R0, R1, C0, C1 int
	// Transposed marks files stored in transposed orientation (the
	// Section 6.3 U^T layout): the file's contents are the transpose of
	// the region it covers.
	Transposed bool
}

func (b blockFile) rows() int { return b.R1 - b.R0 }
func (b blockFile) cols() int { return b.C1 - b.C0 }

// matRef is a logical submatrix: a coordinate frame of Rows x Cols backed
// by block files. It is the in-memory form of the paper's Section 5.2
// partition index for B = A4 - L2'U2: "we only record the indices of the
// beginning and ending row, and the beginning and ending column, of each
// partition ... and the names of the files storing this data". Slicing a
// matRef is pure metadata manipulation; no bytes move until a region is
// read.
type matRef struct {
	Rows, Cols int
	Blocks     []blockFile
}

// slice narrows the reference to rows [r0, r1) x cols [c0, c1), keeping
// only intersecting blocks with coordinates rebased to the new frame.
func (m matRef) slice(r0, r1, c0, c1 int) matRef {
	if r0 < 0 || c0 < 0 || r1 > m.Rows || c1 > m.Cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("core: slice [%d:%d,%d:%d] out of %dx%d frame", r0, r1, c0, c1, m.Rows, m.Cols))
	}
	out := matRef{Rows: r1 - r0, Cols: c1 - c0}
	for _, b := range m.Blocks {
		if b.R1 <= r0 || b.R0 >= r1 || b.C1 <= c0 || b.C0 >= c1 {
			continue
		}
		nb := b
		nb.R0 -= r0
		nb.R1 -= r0
		nb.C0 -= c0
		nb.C1 -= c0
		out.Blocks = append(out.Blocks, nb)
	}
	return out
}

// nodeReader reads DFS files on behalf of a specific datanode, so reads
// are attributed to the executing node for locality accounting.
type nodeReader struct {
	fs   *dfs.FS
	node int
}

// read returns the stored bytes of path as a read-only view (dfs.View):
// every caller decodes out of them and keeps no reference.
func (r nodeReader) read(path string) ([]byte, error) {
	return r.fs.View(path, r.node)
}

func (r nodeReader) readMatrix(path string) (*matrix.Dense, error) {
	return r.fs.ReadMatrixFrom(path, r.node)
}

// masterReader reads on behalf of the master (no locality attribution).
func masterReader(fs *dfs.FS) nodeReader { return nodeReader{fs: fs, node: -1} }

// readRegion assembles rows [r0, r1) x cols [c0, c1) of the reference in
// a new matrix.
func readRegion(rd nodeReader, ref matRef, r0, r1, c0, c1 int) (*matrix.Dense, error) {
	out := matrix.New(r1-r0, c1-c0)
	if err := readRegionInto(rd, ref, r0, r1, c0, c1, out, 0, 0, false); err != nil {
		return nil, err
	}
	return out, nil
}

// readRegionInto decodes rows [r0, r1) x cols [c0, c1) of the reference
// straight from the stored bytes of every intersecting block file into
// dst, the region's first element landing at dst (dr, dc). With transpose
// the region is written transposed (element (r, c) at dst (dr+c-c0,
// dc+r-r0)); a file stored transposed (Section 6.3) is un-transposed by
// the same decode, so no orientation is ever materialized in between.
// Each file is still charged as one whole-file read (HDFS block reads);
// only the needed portion is decoded.
func readRegionInto(rd nodeReader, ref matRef, r0, r1, c0, c1 int, dst *matrix.Dense, dr, dc int, transpose bool) error {
	sub := ref.slice(r0, r1, c0, c1)
	covered := 0
	for _, b := range sub.Blocks {
		data, err := rd.read(b.Path)
		if err != nil {
			return fmt.Errorf("core: readRegion %s: %w", b.Path, err)
		}
		rows, cols, err := matrix.BinaryDims(data)
		if err != nil {
			return fmt.Errorf("core: readRegion %s: %w", b.Path, err)
		}
		if b.Transposed {
			rows, cols = cols, rows
		}
		if rows != b.rows() || cols != b.cols() {
			return fmt.Errorf("core: readRegion %s: stored %dx%d, indexed %dx%d",
				b.Path, rows, cols, b.rows(), b.cols())
		}
		// Clip the block to the frame; the file may extend outside it.
		fr0, fr1 := clamp(b.R0, 0, sub.Rows), clamp(b.R1, 0, sub.Rows)
		fc0, fc1 := clamp(b.C0, 0, sub.Cols), clamp(b.C1, 0, sub.Cols)
		// The clipped region in the file's stored coordinates, and where
		// its first element lands.
		sr0, sr1, sc0, sc1 := fr0-b.R0, fr1-b.R0, fc0-b.C0, fc1-b.C0
		if b.Transposed {
			sr0, sr1, sc0, sc1 = sc0, sc1, sr0, sr1
		}
		at0, at1 := dr+fr0, dc+fc0
		if transpose {
			at0, at1 = dr+fc0, dc+fr0
		}
		if err := matrix.DecodeBinaryRegion(data, sr0, sr1, sc0, sc1, dst, at0, at1, b.Transposed != transpose); err != nil {
			return fmt.Errorf("core: readRegion %s: %w", b.Path, err)
		}
		covered += (fr1 - fr0) * (fc1 - fc0)
	}
	if covered != sub.Rows*sub.Cols {
		return fmt.Errorf("core: readRegion [%d:%d,%d:%d]: blocks cover %d of %d elements",
			r0, r1, c0, c1, covered, sub.Rows*sub.Cols)
	}
	return nil
}

// readAll assembles the full referenced matrix.
func readAll(rd nodeReader, ref matRef) (*matrix.Dense, error) {
	return readRegion(rd, ref, 0, ref.Rows, 0, ref.Cols)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// bandBounds splits length n into m nearly equal contiguous bands and
// returns the bounds of band i: [lo, hi). Bands differ in size by at most
// one element, the paper's equal-work partitioning requirement.
func bandBounds(n, m, i int) (lo, hi int) {
	return n * i / m, n * (i + 1) / m
}
