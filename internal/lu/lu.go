// Package lu implements single-node LU decomposition with partial pivoting
// (Algorithm 1 of the HPDC 2014 paper), triangular-matrix inversion
// (Equation 4), and full matrix inversion via A^-1 = U^-1 L^-1 P.
//
// This is the kernel the MapReduce pipeline runs on the master node for
// submatrices of order <= nb (the "bound value", 3200 in the paper's
// experiments), and it also serves as the ground-truth reference for the
// distributed implementations.
package lu

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/matrix"
)

// ErrSingular is returned when a pivot column has no usable (nonzero) pivot,
// i.e. the input matrix is singular to working precision.
var ErrSingular = errors.New("lu: matrix is singular")

// ErrNotSquare is returned for non-square inputs.
var ErrNotSquare = errors.New("lu: matrix is not square")

// pivotTol is the magnitude below which a pivot is considered zero.
const pivotTol = 1e-300

// Factorization holds a combined LU factorization with partial pivoting:
// P*A = L*U where L is unit lower triangular and U is upper triangular.
//
// As in Algorithm 1, L and U share one matrix: the strict lower triangle of
// LU holds L (unit diagonal implied, not stored) and the upper triangle
// including the diagonal holds U. P is stored compactly as a matrix.Perm.
type Factorization struct {
	LU *matrix.Dense
	P  matrix.Perm
	// swaps counts row exchanges, fixing the determinant's sign.
	swaps int
}

// Order returns the order n of the factored matrix.
func (f *Factorization) Order() int { return f.LU.Rows }

// Decompose computes the pivoted LU factorization of a square matrix A
// following Algorithm 1. A is not modified.
func Decompose(a *matrix.Dense) (*Factorization, error) {
	if !a.IsSquare() {
		return nil, fmt.Errorf("lu: Decompose %dx%d: %w", a.Rows, a.Cols, ErrNotSquare)
	}
	lu := a.Clone()
	n := lu.Rows
	p := matrix.IdentityPerm(n)
	swaps := 0
	for i := 0; i < n; i++ {
		// Pivot selection: the row with maximum |element| in column i among
		// rows i..n-1 (Algorithm 1 line 3).
		piv, best := i, math.Abs(lu.At(i, i))
		for r := i + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, i)); v > best {
				piv, best = r, v
			}
		}
		if best < pivotTol {
			return nil, fmt.Errorf("lu: zero pivot at column %d: %w", i, ErrSingular)
		}
		if piv != i {
			swapRows(lu, i, piv)
			p[i], p[piv] = p[piv], p[i]
			swaps++
		}
		// Scale the subcolumn (Algorithm 1 lines 6-8) and update the
		// trailing submatrix (lines 9-13).
		inv := 1 / lu.At(i, i)
		for j := i + 1; j < n; j++ {
			lji := lu.At(j, i) * inv
			lu.Set(j, i, lji)
			if lji == 0 {
				continue
			}
			urow := lu.Row(i)[i+1:]
			jrow := lu.Row(j)[i+1:]
			for k, uv := range urow {
				jrow[k] -= lji * uv
			}
		}
	}
	return &Factorization{LU: lu, P: p, swaps: swaps}, nil
}

func swapRows(m *matrix.Dense, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// L returns the unit lower triangular factor as an explicit matrix.
func (f *Factorization) L() *matrix.Dense {
	n := f.Order()
	l := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			l.Set(i, j, f.LU.At(i, j))
		}
		l.Set(i, i, 1)
	}
	return l
}

// U returns the upper triangular factor as an explicit matrix.
func (f *Factorization) U() *matrix.Dense {
	n := f.Order()
	u := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			u.Set(i, j, f.LU.At(i, j))
		}
	}
	return u
}

// Det returns the determinant of the original matrix: the product of U's
// diagonal with sign (-1)^swaps.
func (f *Factorization) Det() float64 {
	d := 1.0
	for i := 0; i < f.Order(); i++ {
		d *= f.LU.At(i, i)
	}
	if f.swaps%2 == 1 {
		d = -d
	}
	return d
}

// SolveVec solves A x = b using the factorization: forward substitution with
// L on the pivoted right-hand side, then back substitution with U.
func (f *Factorization) SolveVec(b []float64) ([]float64, error) {
	n := f.Order()
	if len(b) != n {
		return nil, fmt.Errorf("lu: SolveVec rhs length %d, want %d", len(b), n)
	}
	// y = L^-1 (P b)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[f.P[i]]
		row := f.LU.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s
	}
	// x = U^-1 y
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		row := f.LU.Row(i)
		for k := i + 1; k < n; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// Solve solves A X = B column-by-column.
func (f *Factorization) Solve(b *matrix.Dense) (*matrix.Dense, error) {
	if b.Rows != f.Order() {
		return nil, fmt.Errorf("lu: Solve rhs has %d rows, want %d", b.Rows, f.Order())
	}
	out := matrix.New(b.Rows, b.Cols)
	for j := 0; j < b.Cols; j++ {
		x, err := f.SolveVec(b.Col(j))
		if err != nil {
			return nil, err
		}
		for i, v := range x {
			out.Set(i, j, v)
		}
	}
	return out, nil
}

// Inverse computes A^-1 = U^-1 L^-1 P from the factorization, the paper's
// Section 4.3 procedure: invert both triangular factors via Equation 4,
// multiply, and undo pivoting by permuting columns. It is the pipeline's
// final job on one node: the columns of L^-1 and the rows of U^-1 are both
// produced contiguously by LowerInverseColumns (each reads only its own
// triangle of the shared LU matrix), and their product starts every inner
// product at max(i, j), past the structural zeros.
func (f *Factorization) Inverse() (*matrix.Dense, error) {
	n := f.Order()
	for i := 0; i < n; i++ {
		if math.Abs(f.LU.At(i, i)) < pivotTol {
			return nil, fmt.Errorf("lu: zero diagonal at %d: %w", i, ErrSingular)
		}
	}
	all := matrix.IdentityPerm(n)
	linvT := LowerInverseColumns(f.LU, all, true)
	uinv := LowerInverseColumns(f.LU.Transpose(), all, false)
	prod, err := matrix.MulTransBSkip(uinv, linvT, all, all)
	if err != nil {
		return nil, err
	}
	return f.P.ApplyCols(prod), nil
}

// Invert is the convenience single-node inversion: Decompose + Inverse.
func Invert(a *matrix.Dense) (*matrix.Dense, error) {
	f, err := Decompose(a)
	if err != nil {
		return nil, err
	}
	return f.Inverse()
}

// LowerInverse inverts a lower triangular matrix by Equation 4:
//
//	[L^-1]ij = 0                                  for i < j
//	[L^-1]ii = 1/[L]ii
//	[L^-1]ij = -1/[L]ii * sum_{k=j}^{i-1} [L]ik [L^-1]kj   for i > j
//
// If unitDiagonal is true the diagonal of l is assumed to be all ones
// regardless of the stored values (the paper's convention lii = 1.0).
// Column j of the inverse depends only on column j — the independence the
// paper exploits to parallelize triangular inversion across mappers.
func LowerInverse(l *matrix.Dense, unitDiagonal bool) *matrix.Dense {
	return LowerInverseColumns(l, matrix.IdentityPerm(l.Rows), unitDiagonal).Transpose()
}

// LowerInverseColumns computes the idx columns of the inverse of lower
// triangular l, each stored contiguously: row bi of the len(idx) x n
// result is column idx[bi] of the inverse. Only l's lower triangle is
// read. It is the per-task unit of the triangular-inversion MapReduce job
// (Section 5.4): distinct columns can be computed by distinct workers
// with no communication.
func LowerInverseColumns(l *matrix.Dense, idx []int, unitDiagonal bool) *matrix.Dense {
	out := matrix.New(len(idx), l.Rows)
	InvertLowerRows(l, 0, idx, unitDiagonal, out)
	return out
}

// InvertLowerRows advances the Equation 4 recurrences of columns idx by
// the rows of the factor held in band — row b of band is row r0+b of the
// lower triangular matrix — writing element r0+b of every requested
// column into out (laid out as LowerInverseColumns' result). Rows before
// r0 must already have been fed, in order; a caller that cannot hold the
// factor streams it through in row bands.
//
// Per column c the sum for row i is still one accumulator over
// k = c … i-1 ascending, then -s/diag. Four columns advance together over
// each row of l, so the row is loaded once and the four independent
// recurrences hide each other's latency; a group starts at its smallest
// c, which for the other three only adds terms whose inverse-column
// factor is a structural zero.
func InvertLowerRows(band *matrix.Dense, r0 int, idx []int, unitDiagonal bool, out *matrix.Dense) {
	one := func(i int, lrow []float64, d float64, c int, o []float64) {
		switch {
		case i == c:
			o[i] = 1 / d
		case i > c:
			o[i] = -matrix.Dot(lrow[c:i], o[c:i]) / d
		}
	}
	for g := 0; g < len(idx); g += 4 {
		cols := idx[g:min(g+4, len(idx))]
		cmin, cmax := cols[0], cols[0]
		for _, c := range cols[1:] {
			cmin, cmax = min(cmin, c), max(cmax, c)
		}
		for b := max(0, cmin-r0); b < band.Rows; b++ {
			i := r0 + b
			lrow := band.Row(b)
			d := 1.0
			if !unitDiagonal {
				d = lrow[i]
			}
			if len(cols) < 4 || i <= cmax {
				for bi, c := range cols {
					one(i, lrow, d, c, out.Row(g+bi))
				}
				continue
			}
			lr := lrow[cmin:i]
			o0, o1, o2, o3 := out.Row(g), out.Row(g+1), out.Row(g+2), out.Row(g+3)
			p0, p1, p2, p3 := o0[cmin:i], o1[cmin:i], o2[cmin:i], o3[cmin:i]
			var s0, s1, s2, s3 float64
			for k, lv := range lr {
				s0 += lv * p0[k]
				s1 += lv * p1[k]
				s2 += lv * p2[k]
				s3 += lv * p3[k]
			}
			o0[i], o1[i], o2[i], o3[i] = -s0/d, -s1/d, -s2/d, -s3/d
		}
	}
}

// UpperInverse inverts an upper triangular matrix. Following the paper's
// Section 4.1 optimization, it transposes U (giving a lower triangular
// matrix) and inverts that with Equation 4 — keeping every inner loop
// walking rows of row-major storage. The contiguous columns of (U^T)^-1
// are the rows of U^-1, so no transpose back is needed.
func UpperInverse(u *matrix.Dense) (*matrix.Dense, error) {
	n := u.Rows
	for i := 0; i < n; i++ {
		if math.Abs(u.At(i, i)) < pivotTol {
			return nil, fmt.Errorf("lu: zero diagonal at %d: %w", i, ErrSingular)
		}
	}
	return LowerInverseColumns(u.Transpose(), matrix.IdentityPerm(n), false), nil
}
