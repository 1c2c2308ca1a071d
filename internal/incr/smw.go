package incr

import (
	"fmt"
	"math"

	"repro/internal/lu"
	"repro/internal/matrix"
)

// RowDelta builds the rank-k factors of a row update: for changed rows
// r_1..r_k, A' = A + U·Vᵀ with U the n×k selector (U[r_j][j] = 1) and
// column j of V the difference next.Row(r_j) − base.Row(r_j). rows must
// be valid indices of same-shape square matrices (the detector
// guarantees this; RowDelta panics on violations like the rest of the
// matrix package).
func RowDelta(base, next *matrix.Dense, rows []int) (u, v *matrix.Dense) {
	n, k := base.Rows, len(rows)
	u = matrix.New(n, k)
	v = matrix.New(n, k)
	for j, r := range rows {
		u.Set(r, j, 1)
		br, nr := base.Row(r), next.Row(r)
		for i := 0; i < n; i++ {
			v.Set(i, j, nr[i]-br[i])
		}
	}
	return u, v
}

// capacitanceInverse forms C = I_k + VᵀA⁻¹U from the precomputed
// passes and inverts it locally, refusing singular or ill-conditioned
// capacitance with ErrCapacitance. au is A⁻¹U (n×k), vta is VᵀA⁻¹
// (k×n).
func capacitanceInverse(au, vta, u *matrix.Dense, condMax float64) (*matrix.Dense, error) {
	c, err := matrix.Mul(vta, u)
	if err != nil {
		return nil, err
	}
	for i := 0; i < c.Rows; i++ {
		c.Set(i, i, c.At(i, i)+1)
	}
	cinv, err := lu.Invert(c)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCapacitance, err)
	}
	if kappa := matrix.ConditionEstimateInf(c, cinv); !(kappa <= condMax) {
		return nil, fmt.Errorf("%w: condition estimate %.3g exceeds %.3g", ErrCapacitance, kappa, condMax)
	}
	return cinv, nil
}

// smwCombine finishes the identity from its three passes:
// X = A⁻¹ − (A⁻¹U · C⁻¹) · VᵀA⁻¹.
func smwCombine(ainv, au, cinv, vta *matrix.Dense) (*matrix.Dense, error) {
	m, err := matrix.Mul(au, cinv)
	if err != nil {
		return nil, err
	}
	corr, err := matrix.Mul(m, vta)
	if err != nil {
		return nil, err
	}
	return matrix.Sub(ainv, corr)
}

// Update applies the Sherman–Morrison–Woodbury identity sequentially:
// given A⁻¹ and a rank-k update A' = A + U·Vᵀ, it returns A'⁻¹ in
// O(kn²) work. condMax bounds the capacitance condition number (<=0
// selects DefaultCondMax); a singular or ill-conditioned capacitance
// returns ErrCapacitance so the caller can fall back to full
// inversion.
func Update(ainv, u, v *matrix.Dense, condMax float64) (*matrix.Dense, error) {
	if err := validateUpdate(ainv, u, v); err != nil {
		return nil, err
	}
	if condMax <= 0 {
		condMax = DefaultCondMax
	}
	if u.Cols == 0 {
		return ainv.Clone(), nil
	}
	// The two n×n passes run on the row-dot kernel; each element is
	// the same ascending-k sum matrix.Mul forms, so the bits match it.
	au, err := matrix.MulTransB(ainv, u.Transpose())
	if err != nil {
		return nil, err
	}
	vta, err := matrix.MulTransB(v.Transpose(), ainv.Transpose())
	if err != nil {
		return nil, err
	}
	cinv, err := capacitanceInverse(au, vta, u, condMax)
	if err != nil {
		return nil, err
	}
	return smwCombine(ainv, au, cinv, vta)
}

func validateUpdate(ainv, u, v *matrix.Dense) error {
	if ainv == nil || u == nil || v == nil {
		return fmt.Errorf("incr: Update: nil operand")
	}
	if !ainv.IsSquare() {
		return fmt.Errorf("incr: Update: A⁻¹ is %dx%d, want square", ainv.Rows, ainv.Cols)
	}
	if u.Rows != ainv.Rows || v.Rows != ainv.Rows || u.Cols != v.Cols {
		return fmt.Errorf("incr: Update: U %dx%d, V %dx%d against n=%d",
			u.Rows, u.Cols, v.Rows, v.Cols, ainv.Rows)
	}
	return nil
}

// SampledResidual measures the guardrail quantity: the largest
// ‖A'·x_j − e_j‖∞ over `samples` evenly spaced columns j of X. A full
// ‖A'X − I‖ check would cost the O(n³) the update just avoided; the
// sampled check is O(s·n²) and catches the two real failure modes
// (a sketch collision hiding a changed row, and capacitance
// conditioning loss) because either corrupts essentially every column.
// Column choice is deterministic so replays agree. NaN/Inf anywhere in
// a sampled column reports +Inf.
func SampledResidual(aNew, x *matrix.Dense, samples int) float64 {
	n := aNew.Rows
	if samples <= 0 {
		samples = DefaultSampleCols
	}
	if samples > n {
		samples = n
	}
	worst := 0.0
	for s := 0; s < samples; s++ {
		j := s * n / samples
		col, err := matrix.MulVec(aNew, x.Col(j))
		if err != nil {
			return math.Inf(1)
		}
		for i, v := range col {
			if i == j {
				v -= 1
			}
			if math.IsNaN(v) {
				return math.Inf(1)
			}
			if a := math.Abs(v); a > worst {
				worst = a
			}
		}
	}
	return worst
}

// Guard applies the residual guardrail: it returns nil when x passes,
// and an error wrapping ErrResidual (carrying the measured residual)
// when it does not.
func Guard(aNew, x *matrix.Dense, tol float64, samples int) error {
	if tol <= 0 {
		tol = DefaultResidualTol
	}
	if r := SampledResidual(aNew, x, samples); !(r <= tol) {
		return fmt.Errorf("%w: sampled residual %.3g > %.3g", ErrResidual, r, tol)
	}
	return nil
}
