package dfs

import (
	"bytes"
	"fmt"

	"repro/internal/matrix"
)

// Matrix helpers: the pipeline stores every submatrix as one binary-format
// file (Section 5.2's "each of which is stored in a separate file").

// WriteMatrix stores m at path in the binary matrix format.
func (fs *FS) WriteMatrix(path string, m *matrix.Dense) error {
	fs.Write(path, encodeMatrix(m))
	return nil
}

// WriteMatrixFrom stores m at path with an explicit replica placement
// (see WriteFrom): writer is the producing datanode (-1 for the master)
// and nodes the favored replica holders.
func (fs *FS) WriteMatrixFrom(path string, m *matrix.Dense, writer int, nodes []int) error {
	fs.WriteFrom(path, encodeMatrix(m), writer, nodes)
	return nil
}

func encodeMatrix(m *matrix.Dense) []byte {
	return matrix.AppendBinary(make([]byte, 0, matrix.BinarySize(m.Rows, m.Cols)), m)
}

// ReadMatrix loads the matrix stored at path.
func (fs *FS) ReadMatrix(path string) (*matrix.Dense, error) {
	return fs.ReadMatrixFrom(path, -1)
}

// ReadMatrixFrom loads the matrix at path as read by the given datanode
// (-1 for the master), charging network transfer if the node holds no
// replica. The stored bytes are decoded in place; the header is believed
// only if it matches the file's length.
func (fs *FS) ReadMatrixFrom(path string, node int) (*matrix.Dense, error) {
	data, err := fs.View(path, node)
	if err != nil {
		return nil, err
	}
	m, err := matrix.DecodeBinary(data)
	if err != nil {
		return nil, fmt.Errorf("dfs: ReadMatrix %s: %w", path, err)
	}
	return m, nil
}

// WriteMatrixText stores m at path in the text ("a.txt") format.
func (fs *FS) WriteMatrixText(path string, m *matrix.Dense) error {
	var buf bytes.Buffer
	if err := matrix.WriteText(&buf, m); err != nil {
		return fmt.Errorf("dfs: WriteMatrixText %s: %w", path, err)
	}
	fs.Write(path, buf.Bytes())
	return nil
}

// ReadMatrixText loads a text-format matrix from path.
func (fs *FS) ReadMatrixText(path string) (*matrix.Dense, error) {
	data, err := fs.Read(path)
	if err != nil {
		return nil, err
	}
	m, err := matrix.ReadText(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("dfs: ReadMatrixText %s: %w", path, err)
	}
	return m, nil
}
