// Package workload generates the input matrices used by tests, examples and
// the benchmark harness, and records the descriptors of the paper's
// evaluation matrices (Table 3).
//
// The paper generated its matrices "randomly using the Random class in Java"
// and notes that performance depends only on the order of the matrix, not
// its values. We use seeded math/rand generators so every experiment is
// reproducible, and provide diagonally-dominant variants so that inverses
// are well-conditioned at test scale.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/matrix"
)

// Random returns an n x n matrix with i.i.d. Uniform(-1, 1) entries, the
// direct analog of the paper's randomly generated inputs.
func Random(n int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.New(n, n)
	for i := range m.Data {
		m.Data[i] = 2*rng.Float64() - 1
	}
	return m
}

// RandomRect returns an r x c matrix with i.i.d. Uniform(-1, 1) entries.
func RandomRect(r, c int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.New(r, c)
	for i := range m.Data {
		m.Data[i] = 2*rng.Float64() - 1
	}
	return m
}

// DiagonallyDominant returns a random n x n matrix with its diagonal
// inflated so that |a_ii| exceeds the off-diagonal row sum. Such matrices
// are nonsingular (Gershgorin) and well conditioned, which keeps residual
// checks meaningful at small orders.
func DiagonallyDominant(n int, seed int64) *matrix.Dense {
	m := Random(n, seed)
	for i := 0; i < n; i++ {
		var s float64
		row := m.Row(i)
		for j, v := range row {
			if j != i {
				if v < 0 {
					s -= v
				} else {
					s += v
				}
			}
		}
		sign := 1.0
		if row[i] < 0 {
			sign = -1.0
		}
		row[i] = sign * (s + 1)
	}
	return m
}

// MutatedRows returns the row indices MutateRows perturbs for an order-n
// matrix under (k, seed) — exposed so callers (tests, delta-aware
// clients) can predict which rows a mutation touched without diffing.
func MutatedRows(n, k int, seed int64) []int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	return rng.Perm(n)[:k]
}

// MutateRows returns a copy of base with k distinct rows perturbed, the
// generator behind delta-mutation serving traffic: the off-diagonal
// entries of each chosen row shift by Uniform(-1,1) and the diagonal is
// re-anchored just above the row's absolute off-diagonal sum, so a
// mutated DiagonallyDominant matrix stays diagonally dominant (hence
// invertible) while differing from its base by an exactly rank-k row
// delta. Equal (base, k, seed) triples yield bit-identical results.
func MutateRows(base *matrix.Dense, k int, seed int64) *matrix.Dense {
	next := base.Clone()
	n := base.Rows
	if k > n {
		k = n
	}
	if k <= 0 {
		return next
	}
	rng := rand.New(rand.NewSource(seed))
	for _, r := range rng.Perm(n)[:k] {
		var offsum float64
		row := next.Row(r)
		for j := range row {
			if j == r {
				continue
			}
			row[j] += rng.Float64()*2 - 1
			if row[j] < 0 {
				offsum -= row[j]
			} else {
				offsum += row[j]
			}
		}
		sign := 1.0
		if row[r] < 0 {
			sign = -1
		}
		row[r] = sign * (offsum + 1)
	}
	return next
}

// SPD returns a random symmetric positive definite matrix B*B^T + n*I.
// Used by tests exercising the special-matrix discussion of Section 3.
func SPD(n int, seed int64) *matrix.Dense {
	b := Random(n, seed)
	bbt, err := matrix.MulTransB(b, b)
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		bbt.Set(i, i, bbt.At(i, i)+float64(n))
	}
	return bbt
}

// Tridiagonal returns the classic [-1, 2, -1] tridiagonal matrix: a
// well-understood, nonsingular test input whose inverse is known in closed
// form ([A^-1]ij = min(i+1,j+1) - (i+1)(j+1)/(n+1) for the 2,-1 matrix).
func Tridiagonal(n int) *matrix.Dense {
	m := matrix.New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 2)
		if i > 0 {
			m.Set(i, i-1, -1)
		}
		if i < n-1 {
			m.Set(i, i+1, -1)
		}
	}
	return m
}

// TridiagonalInverse returns the closed-form inverse of Tridiagonal(n):
// [A^-1]ij = min(i,j)+1 - (i+1)(j+1)/(n+1) ... concretely
// [A^-1]ij = (min(i,j)+1) * (n - max(i,j)) / (n+1) for 0-based indices.
func TridiagonalInverse(n int) *matrix.Dense {
	m := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			lo, hi := i, j
			if lo > hi {
				lo, hi = hi, lo
			}
			m.Set(i, j, float64(lo+1)*float64(n-hi)/float64(n+1))
		}
	}
	return m
}

// ProjectionMatrix builds a synthetic computed-tomography projection matrix
// M for an image of pixels pixels (Section 1's CT application, T = M S).
// Each row accumulates weighted contributions along a pseudo-ray; a ridge is
// added on the diagonal so M is invertible.
func ProjectionMatrix(pixels int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.New(pixels, pixels)
	for ray := 0; ray < pixels; ray++ {
		// Each pseudo-ray touches a contiguous window of pixels with
		// random attenuation weights.
		width := 1 + rng.Intn(pixels/2+1)
		start := rng.Intn(pixels)
		for k := 0; k < width; k++ {
			j := (start + k) % pixels
			m.Set(ray, j, m.At(ray, j)+rng.Float64())
		}
		m.Set(ray, ray, m.At(ray, ray)+float64(pixels))
	}
	return m
}

// Orthogonal returns a random n x n orthogonal matrix built from a
// product of n random Householder reflections. Orthogonal matrices have
// condition number 1, so inversion (= transposition) is maximally stable —
// the opposite end of the spectrum from Hilbert.
func Orthogonal(n int, seed int64) *matrix.Dense {
	return orthonormalRows(n, n, rand.New(rand.NewSource(seed)))
}

// orthonormalRows returns an r x c matrix (r <= c) with orthonormal rows:
// the first r rows of a product of c random Householder reflections.
func orthonormalRows(r, c int, rng *rand.Rand) *matrix.Dense {
	q := matrix.New(r, c)
	for i := 0; i < r; i++ {
		q.Set(i, i, 1)
	}
	v := make([]float64, c)
	for k := 0; k < c; k++ {
		var norm2 float64
		for i := range v {
			v[i] = rng.NormFloat64()
			norm2 += v[i] * v[i]
		}
		if norm2 == 0 {
			continue
		}
		// Q <- Q (I - 2 v v^T / |v|^2)
		for i := 0; i < r; i++ {
			row := q.Row(i)
			var dot float64
			for j := 0; j < c; j++ {
				dot += row[j] * v[j]
			}
			scale := 2 * dot / norm2
			for j := 0; j < c; j++ {
				row[j] -= scale * v[j]
			}
		}
	}
	return q
}

// Graded returns an m x n (m >= n) matrix U diag(σ) V^T with condition
// number kappa: U and V have orthonormal columns (random Householder
// products) and σ is log-spaced from 1 down to 1/kappa. It is the input
// of the conditioning sweeps that pin least-squares and pseudo-inverse
// accuracy against κ·ε.
func Graded(m, n int, kappa float64, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	ut := orthonormalRows(n, m, rng)
	vt := orthonormalRows(n, n, rng)
	for j := 1; j < n; j++ {
		sigma := math.Pow(kappa, -float64(j)/float64(n-1))
		row := ut.Row(j)
		for i := range row {
			row[i] *= sigma
		}
	}
	a, err := matrix.Mul(ut.Transpose(), vt)
	if err != nil {
		panic(err)
	}
	return a
}

// Banded returns a random diagonally dominant band matrix with the given
// half-bandwidth: a_ij = 0 whenever |i-j| > halfBand.
func Banded(n, halfBand int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.New(n, n)
	for i := 0; i < n; i++ {
		var off float64
		for j := maxI(0, i-halfBand); j <= minI(n-1, i+halfBand); j++ {
			if j == i {
				continue
			}
			v := 2*rng.Float64() - 1
			m.Set(i, j, v)
			if v < 0 {
				off -= v
			} else {
				off += v
			}
		}
		m.Set(i, i, off+1)
	}
	return m
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Hilbert returns the n x n Hilbert matrix H[i][j] = 1/(i+j+1): the
// classic ill-conditioned test input (condition number grows like
// e^{3.5n}), used by the numerical-stability investigation the paper
// defers to future work (Section 5).
func Hilbert(n int) *matrix.Dense {
	m := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, 1/float64(i+j+1))
		}
	}
	return m
}

// MatrixSpec describes one of the paper's evaluation matrices (Table 3).
type MatrixSpec struct {
	Name     string
	Order    int     // n
	Elements float64 // billions, as printed in Table 3
	TextGB   float64 // size in text format, GB
	BinaryGB float64 // size in binary format, GB
	Jobs     int     // number of MapReduce jobs at nb = 3200
}

// Table3 lists the five matrices of the paper's Table 3.
var Table3 = []MatrixSpec{
	{Name: "M1", Order: 20480, Elements: 0.42, TextGB: 8, BinaryGB: 3.2, Jobs: 9},
	{Name: "M2", Order: 32768, Elements: 1.07, TextGB: 20, BinaryGB: 8, Jobs: 17},
	{Name: "M3", Order: 40960, Elements: 1.68, TextGB: 40, BinaryGB: 16, Jobs: 17},
	{Name: "M4", Order: 102400, Elements: 10.49, TextGB: 200, BinaryGB: 80, Jobs: 33},
	{Name: "M5", Order: 16384, Elements: 0.26, TextGB: 5, BinaryGB: 2, Jobs: 9},
}

// SpecByName returns the Table 3 descriptor with the given name.
func SpecByName(name string) (MatrixSpec, error) {
	for _, s := range Table3 {
		if s.Name == name {
			return s, nil
		}
	}
	return MatrixSpec{}, fmt.Errorf("workload: unknown matrix %q", name)
}

// PaperNB is the bound value n_b used throughout the paper's experiments:
// the order of the largest matrix LU-decomposed on the master node.
const PaperNB = 3200
