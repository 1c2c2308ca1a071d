package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/dfs"
	"repro/internal/matrix"
)

// On-disk encodings for the pipeline's non-matrix intermediates:
//
//   - permutation files ("p.txt" in Figure 4): the compact array S of
//     Section 4.1, one entry per row;
//   - indexed blocks: the triangular-inversion job's intermediate and
//     final files hold *discrete* (non-contiguous) rows and columns
//     (Section 5.4's grid blocks, "each of which contains discrete rows
//     and discrete columns"), so each file carries its row/column index
//     vectors alongside the dense payload.

const (
	permMagic    = uint32(0x50524d31) // "PRM1"
	indexedMagic = uint32(0x49584231) // "IXB1"

	// maxCodecDim caps every header-declared length before element
	// storage is allocated, mirroring matrix.ReadBinary's dimension
	// bound: a corrupt or hostile intermediate file must not be able
	// to demand a huge allocation with a few header bytes.
	maxCodecDim = 1 << 24
)

// writePerm stores p at path.
func writePerm(fs *dfs.FS, path string, p matrix.Perm) error {
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, permMagic); err != nil {
		return err
	}
	if err := binary.Write(&buf, binary.LittleEndian, uint32(len(p))); err != nil {
		return err
	}
	for _, v := range p {
		if err := binary.Write(&buf, binary.LittleEndian, int32(v)); err != nil {
			return err
		}
	}
	fs.Write(path, buf.Bytes())
	return nil
}

// readPerm loads a permutation from path.
func readPerm(fs *dfs.FS, path string) (matrix.Perm, error) {
	data, err := fs.Read(path)
	if err != nil {
		return nil, err
	}
	r := bytes.NewReader(data)
	var magic, n uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("core: readPerm %s: %w", path, err)
	}
	if magic != permMagic {
		return nil, fmt.Errorf("core: readPerm %s: bad magic %#x", path, magic)
	}
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > maxCodecDim {
		return nil, fmt.Errorf("core: readPerm %s: implausible length %d", path, n)
	}
	p := make(matrix.Perm, n)
	for i := range p {
		var v int32
		if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
			return nil, fmt.Errorf("core: readPerm %s entry %d: %w", path, i, err)
		}
		p[i] = int(v)
	}
	if !p.IsValid() {
		return nil, fmt.Errorf("core: readPerm %s: not a permutation", path)
	}
	return p, nil
}

// indexedBlock is a dense payload whose rows and columns correspond to
// arbitrary (sorted, discrete) global indices. RowIdx has len Data.Rows and
// ColIdx len Data.Cols; a nil index vector means the identity 0..k-1.
type indexedBlock struct {
	RowIdx []int
	ColIdx []int
	Data   *matrix.Dense
}

// writeIndexed stores b at path.
func writeIndexed(fs *dfs.FS, path string, b indexedBlock) error {
	if b.RowIdx != nil && len(b.RowIdx) != b.Data.Rows {
		return fmt.Errorf("core: writeIndexed %s: %d row indices for %d rows", path, len(b.RowIdx), b.Data.Rows)
	}
	if b.ColIdx != nil && len(b.ColIdx) != b.Data.Cols {
		return fmt.Errorf("core: writeIndexed %s: %d col indices for %d cols", path, len(b.ColIdx), b.Data.Cols)
	}
	size := 12 + 4*int64(len(b.RowIdx)+len(b.ColIdx)) + matrix.BinarySize(b.Data.Rows, b.Data.Cols)
	buf := make([]byte, 0, size)
	for _, v := range []int{int(indexedMagic), len(b.RowIdx), len(b.ColIdx)} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, v := range b.RowIdx {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, v := range b.ColIdx {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	fs.Write(path, matrix.AppendBinary(buf, b.Data))
	return nil
}

// readIndexed loads an indexed block written by writeIndexed.
func readIndexed(rd nodeReader, path string) (indexedBlock, error) {
	rowIdx, colIdx, payload, err := readIndexedHeader(rd, path)
	if err != nil {
		return indexedBlock{}, err
	}
	m, err := matrix.DecodeBinary(payload)
	if err != nil {
		return indexedBlock{}, fmt.Errorf("core: readIndexed %s payload: %w", path, err)
	}
	if rowIdx != nil && len(rowIdx) != m.Rows {
		return indexedBlock{}, fmt.Errorf("core: readIndexed %s: index/shape mismatch", path)
	}
	if colIdx != nil && len(colIdx) != m.Cols {
		return indexedBlock{}, fmt.Errorf("core: readIndexed %s: index/shape mismatch", path)
	}
	return indexedBlock{RowIdx: rowIdx, ColIdx: colIdx, Data: m}, nil
}

// readIndexedHeader reads an indexed block's index vectors and returns
// its still-encoded payload (a read-only view of the stored bytes), for
// readers that decode rows straight into place. The whole file is in
// hand, so the header-declared index counts are checked against the bytes
// actually present before anything is sized by them.
func readIndexedHeader(rd nodeReader, path string) (rowIdx, colIdx []int, payload []byte, err error) {
	data, err := rd.read(path)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(data) < 12 {
		return nil, nil, nil, fmt.Errorf("core: readIndexed %s: %d-byte header", path, len(data))
	}
	magic := binary.LittleEndian.Uint32(data)
	nr, nc := binary.LittleEndian.Uint32(data[4:]), binary.LittleEndian.Uint32(data[8:])
	if magic != indexedMagic {
		return nil, nil, nil, fmt.Errorf("core: readIndexed %s: bad magic %#x", path, magic)
	}
	if nr > maxCodecDim || nc > maxCodecDim {
		return nil, nil, nil, fmt.Errorf("core: readIndexed %s: implausible index counts %dx%d", path, nr, nc)
	}
	rest := data[12:]
	if int64(len(rest)) < 4*(int64(nr)+int64(nc)) {
		return nil, nil, nil, fmt.Errorf("core: readIndexed %s: %d+%d indices in %d bytes", path, nr, nc, len(rest))
	}
	readIdx := func(n uint32) []int {
		if n == 0 {
			return nil
		}
		out := make([]int, n)
		for i := range out {
			out[i] = int(binary.LittleEndian.Uint32(rest[4*i:]))
		}
		rest = rest[4*n:]
		return out
	}
	rowIdx, colIdx = readIdx(nr), readIdx(nc)
	return rowIdx, colIdx, rest, nil
}
