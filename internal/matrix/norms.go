package matrix

import "math"

// NormFrobenius returns the Frobenius norm sqrt(sum a_ij^2).
func NormFrobenius(m *Dense) float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// NormInf returns the infinity norm: the maximum absolute row sum.
func NormInf(m *Dense) float64 {
	var worst float64
	for i := 0; i < m.Rows; i++ {
		var s float64
		for _, v := range m.Row(i) {
			s += math.Abs(v)
		}
		if s > worst {
			worst = s
		}
	}
	return worst
}

// MaxAbs returns the largest absolute element value.
func MaxAbs(m *Dense) float64 {
	var worst float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > worst {
			worst = a
		}
	}
	return worst
}

// ConditionEstimateInf returns ||A||_inf * ||Ainv||_inf, the infinity-norm
// condition number given a computed inverse. Large values explain loss of
// accuracy in the Section 7.2 residual check.
func ConditionEstimateInf(a, ainv *Dense) float64 {
	return NormInf(a) * NormInf(ainv)
}
