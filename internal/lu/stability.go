package lu

import (
	"math"

	"repro/internal/matrix"
)

// Numerical-stability instrumentation. The paper validates accuracy
// empirically (every element of I - M M^-1 below 1e-5, Section 7.2) and
// defers "a deeper investigation of numerical stability" to future work
// (Section 5). These helpers implement the standard tools of that
// investigation for the LU kernel.

// growthFactor returns the pivot growth factor of the factorization:
// max|U| / max|A|. Partial pivoting keeps it bounded by 2^(n-1) in the
// worst case but ~n^(2/3) on average for random matrices; large growth
// signals accuracy loss.
func growthFactor(a *matrix.Dense) (float64, error) {
	f, err := Decompose(a)
	if err != nil {
		return 0, err
	}
	maxA := matrix.MaxAbs(a)
	if maxA == 0 {
		return 0, nil
	}
	// Combined storage: the upper triangle (incl. diagonal) holds U.
	var maxU float64
	n := f.Order()
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if v := math.Abs(f.LU.At(i, j)); v > maxU {
				maxU = v
			}
		}
	}
	return maxU / maxA, nil
}

// backwardError returns the normwise relative backward error of a
// computed inverse X: ||A X - I||_inf / (||A||_inf ||X||_inf). Values
// near machine epsilon indicate a backward-stable computation.
func backwardError(a, x *matrix.Dense) (float64, error) {
	ax, err := matrix.Mul(a, x)
	if err != nil {
		return 0, err
	}
	n := a.Rows
	for i := 0; i < n; i++ {
		ax.Set(i, i, ax.At(i, i)-1)
	}
	denom := matrix.NormInf(a) * matrix.NormInf(x)
	if denom == 0 {
		return 0, nil
	}
	return matrix.NormInf(ax) / denom, nil
}

// conditionInf estimates the infinity-norm condition number by computing
// the inverse explicitly: kappa = ||A||_inf ||A^-1||_inf.
func conditionInf(a *matrix.Dense) (float64, error) {
	inv, err := Invert(a)
	if err != nil {
		return 0, err
	}
	return matrix.NormInf(a) * matrix.NormInf(inv), nil
}

// forwardErrorBound returns the standard first-order forward error bound
// for the computed inverse: kappa * eps. The measured residual should not
// exceed this by a large factor for a stable implementation.
func forwardErrorBound(kappa float64) float64 {
	const eps = 2.220446049250313e-16
	return kappa * eps
}
