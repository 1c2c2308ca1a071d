package lu

import (
	"fmt"

	"repro/internal/matrix"
)

// Iterative refinement of a computed inverse — the natural follow-up to
// the paper's Section 7.2 accuracy check. Newton-Schulz iteration
//
//	X' = X (2I - A X)
//
// converges quadratically to A^-1 whenever ||I - A X|| < 1 in any
// submultiplicative norm, so one or two sweeps repair the accuracy a long
// distributed pipeline loses on ill-conditioned inputs.

// RefineInverse improves an approximate inverse x of a. It iterates until
// the identity residual stops improving or maxIter sweeps have run, and
// returns the refined inverse with its final residual.
func RefineInverse(a, x *matrix.Dense, maxIter int) (*matrix.Dense, float64, error) {
	if !a.IsSquare() || !x.IsSquare() || a.Rows != x.Rows {
		return nil, 0, fmt.Errorf("lu: RefineInverse shapes %dx%d vs %dx%d: %w", a.Rows, a.Cols, x.Rows, x.Cols, ErrNotSquare)
	}
	if maxIter < 1 {
		maxIter = 2
	}
	n := a.Rows
	cur := x.Clone()
	res, err := matrix.IdentityResidual(a, cur)
	if err != nil {
		return nil, 0, err
	}
	for iter := 0; iter < maxIter; iter++ {
		if res == 0 {
			break
		}
		// R = 2I - A X
		ax, err := matrix.Mul(a, cur)
		if err != nil {
			return nil, 0, err
		}
		r := matrix.Scale(-1, ax)
		for i := 0; i < n; i++ {
			r.Set(i, i, r.At(i, i)+2)
		}
		next, err := matrix.Mul(cur, r)
		if err != nil {
			return nil, 0, err
		}
		nextRes, err := matrix.IdentityResidual(a, next)
		if err != nil {
			return nil, 0, err
		}
		if nextRes >= res {
			break // stagnated at working precision
		}
		cur, res = next, nextRes
	}
	return cur, res, nil
}
