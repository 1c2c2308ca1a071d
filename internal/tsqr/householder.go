package tsqr

import (
	"fmt"
	"math"

	"repro/internal/matrix"
)

// qrFactors holds one dense factorization A = Q R. For square input Q is
// the full m x m orthogonal factor; for tall input (m > n) it is thin: Q
// is m x n with orthonormal columns. R is n x n upper triangular.
type qrFactors struct {
	Q *matrix.Dense
	R *matrix.Dense
}

// householder computes a QR factorization by Householder reflections: the
// per-block kernel of the factor round and of the sequential references.
// Square input yields the full factorization (Q m x m, R m x m); tall
// input (m > n) yields the thin one (Q m x n orthonormal columns, R n x n
// upper triangular). Wide input is rejected with ErrNotTall.
func householder(a *matrix.Dense) (*qrFactors, error) {
	m, n := a.Dims()
	if m < n {
		return nil, fmt.Errorf("tsqr: Householder %dx%d: %w", m, n, ErrNotTall)
	}
	r := a.Clone()
	q := matrix.Identity(m)
	// A square matrix needs no reflector for the last column (nothing
	// below the diagonal); a tall one does, to zero rows n..m-1.
	steps := n - 1
	if m > n {
		steps = n
	}
	for k := 0; k < steps; k++ {
		// Build the reflector for column k.
		var normx float64
		for i := k; i < m; i++ {
			normx += r.At(i, k) * r.At(i, k)
		}
		normx = math.Sqrt(normx)
		if normx == 0 {
			continue
		}
		alpha := -math.Copysign(normx, r.At(k, k))
		v := make([]float64, m)
		v[k] = r.At(k, k) - alpha
		for i := k + 1; i < m; i++ {
			v[i] = r.At(i, k)
		}
		vnorm2 := matrix.Dot(v, v)
		if vnorm2 == 0 {
			continue
		}
		// Apply H = I - 2 v v^T / (v^T v) to R (left) and accumulate into Q.
		applyReflector(r, v, vnorm2, k)
		applyReflectorRight(q, v, vnorm2, k)
	}
	if m > n {
		return &qrFactors{Q: q.Block(0, m, 0, n), R: r.Block(0, n, 0, n)}, nil
	}
	return &qrFactors{Q: q, R: r}, nil
}

// applyReflector updates R <- H R for H = I - 2vv^T/|v|^2, touching rows k..n-1.
func applyReflector(r *matrix.Dense, v []float64, vnorm2 float64, k int) {
	n := r.Rows
	for j := 0; j < r.Cols; j++ {
		var s float64
		for i := k; i < n; i++ {
			s += v[i] * r.At(i, j)
		}
		s = 2 * s / vnorm2
		for i := k; i < n; i++ {
			r.Set(i, j, r.At(i, j)-s*v[i])
		}
	}
}

// applyReflectorRight updates Q <- Q H, touching columns k..n-1.
func applyReflectorRight(q *matrix.Dense, v []float64, vnorm2 float64, k int) {
	n := q.Rows
	for i := 0; i < n; i++ {
		row := q.Row(i)
		var s float64
		for j := k; j < n; j++ {
			s += row[j] * v[j]
		}
		s = 2 * s / vnorm2
		for j := k; j < n; j++ {
			row[j] -= s * v[j]
		}
	}
}
