package lu

import (
	"fmt"
	"math"

	"repro/internal/matrix"
)

// Triangular solves used by the block LU MapReduce job (Equation 6 of the
// paper). Computing U2 from L1 U2 = P1 A2 is a forward substitution with a
// unit lower triangular matrix; computing L2' from L2' U1 = A3 is a
// row-wise substitution against an upper triangular matrix. Both have the
// independence property the paper exploits: each column of U2 (and each
// row of L2') depends only on the corresponding column (row) of the right
// hand side, so distinct workers can compute distinct bands.

// ForwardSubstMatrix solves L X = B for X, where l is lower triangular.
// If unitDiagonal is true the diagonal of l is taken as all ones.
func ForwardSubstMatrix(l, b *matrix.Dense, unitDiagonal bool) (*matrix.Dense, error) {
	if !l.IsSquare() || l.Rows != b.Rows {
		return nil, fmt.Errorf("lu: ForwardSubstMatrix L %dx%d, B %dx%d: %w", l.Rows, l.Cols, b.Rows, b.Cols, ErrNotSquare)
	}
	n, w := b.Rows, b.Cols
	x := b.Clone()
	for i := 0; i < n; i++ {
		xrow := x.Row(i)
		lrow := l.Row(i)
		for k := 0; k < i; k++ {
			lik := lrow[k]
			if lik == 0 {
				continue
			}
			xk := x.Row(k)
			for j := 0; j < w; j++ {
				xrow[j] -= lik * xk[j]
			}
		}
		if !unitDiagonal {
			d := lrow[i]
			if math.Abs(d) < pivotTol {
				return nil, fmt.Errorf("lu: ForwardSubstMatrix zero diagonal at %d: %w", i, ErrSingular)
			}
			inv := 1 / d
			for j := 0; j < w; j++ {
				xrow[j] *= inv
			}
		}
	}
	return x, nil
}

// SolveRowsUpper solves X U = B for X, where u is upper triangular with a
// general (non-unit) diagonal: row r of X satisfies X[r]·U = B[r]. This is
// Equation 6's L2' computation with B = A3.
func SolveRowsUpper(u, b *matrix.Dense) (*matrix.Dense, error) {
	if !u.IsSquare() || u.Rows != b.Cols {
		return nil, fmt.Errorf("lu: SolveRowsUpper U %dx%d, B %dx%d: %w", u.Rows, u.Cols, b.Rows, b.Cols, ErrNotSquare)
	}
	n := u.Rows
	for i := 0; i < n; i++ {
		if math.Abs(u.At(i, i)) < pivotTol {
			return nil, fmt.Errorf("lu: SolveRowsUpper zero diagonal at %d: %w", i, ErrSingular)
		}
	}
	x := matrix.New(b.Rows, b.Cols)
	for r := 0; r < b.Rows; r++ {
		brow := b.Row(r)
		xrow := x.Row(r)
		// x[j] = (b[j] - sum_{k<j} x[k] U[k][j]) / U[j][j], left to right.
		for j := 0; j < n; j++ {
			s := brow[j]
			for k := 0; k < j; k++ {
				s -= xrow[k] * u.At(k, j)
			}
			xrow[j] = s / u.At(j, j)
		}
	}
	return x, nil
}

// SolveRowsUpperTrans is SolveRowsUpper when U is stored transposed
// (Section 6.3): ut holds U^T, so U[k][j] = ut[j][k] and every inner loop
// walks rows of row-major storage. Rows of X are independent, so four of
// them share each load of ut's row j; each element is still
// (b[j] - the k-ascending running difference) / U[j][j].
func SolveRowsUpperTrans(ut, b *matrix.Dense) (*matrix.Dense, error) {
	if !ut.IsSquare() || ut.Rows != b.Cols {
		return nil, fmt.Errorf("lu: SolveRowsUpperTrans U^T %dx%d, B %dx%d: %w", ut.Rows, ut.Cols, b.Rows, b.Cols, ErrNotSquare)
	}
	n := ut.Rows
	for i := 0; i < n; i++ {
		if math.Abs(ut.At(i, i)) < pivotTol {
			return nil, fmt.Errorf("lu: SolveRowsUpperTrans zero diagonal at %d: %w", i, ErrSingular)
		}
	}
	x := matrix.New(b.Rows, b.Cols)
	r := 0
	for ; r+3 < b.Rows; r += 4 {
		b0, b1, b2, b3 := b.Row(r), b.Row(r+1), b.Row(r+2), b.Row(r+3)
		x0, x1, x2, x3 := x.Row(r), x.Row(r+1), x.Row(r+2), x.Row(r+3)
		for j := 0; j < n; j++ {
			urow := ut.Row(j)
			s0, s1, s2, s3 := b0[j], b1[j], b2[j], b3[j]
			p0, p1, p2, p3 := x0[:j], x1[:j], x2[:j], x3[:j]
			for k, uv := range urow[:j] {
				s0 -= p0[k] * uv
				s1 -= p1[k] * uv
				s2 -= p2[k] * uv
				s3 -= p3[k] * uv
			}
			d := urow[j]
			x0[j], x1[j], x2[j], x3[j] = s0/d, s1/d, s2/d, s3/d
		}
	}
	for ; r < b.Rows; r++ {
		brow := b.Row(r)
		xrow := x.Row(r)
		for j := 0; j < n; j++ {
			urow := ut.Row(j)
			s := brow[j]
			for k := 0; k < j; k++ {
				s -= xrow[k] * urow[k]
			}
			xrow[j] = s / urow[j]
		}
	}
	return x, nil
}
