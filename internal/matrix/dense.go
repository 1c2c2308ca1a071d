// Package matrix provides the dense matrix substrate used throughout the
// repository: a row-major float64 matrix type, arithmetic kernels,
// permutations, norms, and the text/binary on-disk formats used by the
// MapReduce matrix-inversion pipeline.
//
// The package corresponds to the numerical groundwork of Xiang, Meng and
// Aboulnaga, "Scalable Matrix Inversion Using MapReduce" (HPDC 2014): all
// higher layers (single-node LU, the block-LU MapReduce pipeline, and the
// ScaLAPACK-style baseline) operate on matrix.Dense values.
package matrix

import (
	"errors"
	"fmt"
)

// ErrShape is returned (wrapped) when operand dimensions are incompatible.
var ErrShape = errors.New("matrix: incompatible shapes")

// Dense is a dense, row-major matrix of float64 values.
//
// The element at row i, column j (both 0-based) is stored at
// Data[i*Cols+j]. Rows and Cols are always non-negative; Data has length
// Rows*Cols. The zero value is an empty 0x0 matrix ready to use.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero-initialized r x c matrix.
// It panics if r or c is negative.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from a slice of equal-length rows, copying the
// values. It panics if the rows are ragged.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("matrix: ragged row %d (len %d, want %d)", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns the element at row i, column j. Bounds are checked by the
// underlying slice access in conjunction with the column check.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Row returns the i-th row as a subslice of the backing array (not a copy).
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("matrix: row %d out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Col returns a copy of the j-th column.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("matrix: col %d out of range %d", j, m.Cols))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// IsSquare reports whether m has the same number of rows and columns.
func (m *Dense) IsSquare() bool { return m.Rows == m.Cols }

// Dims returns the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.Rows, m.Cols }

// Block returns a copy of the submatrix [r0, r1) x [c0, c1), following the
// paper's [A][x1...x2][y1...y2] half-open block notation (Section 2).
func (m *Dense) Block(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || c0 < 0 || r1 > m.Rows || c1 > m.Cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("matrix: block [%d:%d,%d:%d] out of range %dx%d", r0, r1, c0, c1, m.Rows, m.Cols))
	}
	out := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.Row(i-r0), m.Data[i*m.Cols+c0:i*m.Cols+c1])
	}
	return out
}

// SetBlock copies src into m starting at row r0, column c0.
// It panics if src does not fit.
func (m *Dense) SetBlock(r0, c0 int, src *Dense) {
	if r0 < 0 || c0 < 0 || r0+src.Rows > m.Rows || c0+src.Cols > m.Cols {
		panic(fmt.Sprintf("matrix: SetBlock %dx%d at (%d,%d) out of range %dx%d",
			src.Rows, src.Cols, r0, c0, m.Rows, m.Cols))
	}
	for i := 0; i < src.Rows; i++ {
		copy(m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+src.Cols], src.Row(i))
	}
}

// Transpose returns a newly allocated transpose of m.
func (m *Dense) Transpose() *Dense {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Cols+i] = v
		}
	}
	return out
}

// Fill sets every element of m to v.
func (m *Dense) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Apply replaces each element with f(i, j, element).
func (m *Dense) Apply(f func(i, j int, v float64) float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = f(i, j, row[j])
		}
	}
}

// String renders small matrices fully and large matrices as a summary.
func (m *Dense) String() string {
	const maxRender = 8
	if m.Rows > maxRender || m.Cols > maxRender {
		return fmt.Sprintf("Dense{%dx%d}", m.Rows, m.Cols)
	}
	s := ""
	for i := 0; i < m.Rows; i++ {
		s += "["
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.6g", m.At(i, j))
		}
		s += "]"
		if i != m.Rows-1 {
			s += "\n"
		}
	}
	return s
}

// shapeErr builds a wrapped ErrShape with context.
func shapeErr(op string, a, b *Dense) error {
	return fmt.Errorf("%s: %dx%d vs %dx%d: %w", op, a.Rows, a.Cols, b.Rows, b.Cols, ErrShape)
}
