package workload

import (
	"math"
	"testing"

	"repro/internal/lu"
	"repro/internal/matrix"
)

func TestRandomDeterministic(t *testing.T) {
	a := Random(16, 42)
	b := Random(16, 42)
	if !matrix.Equal(a, b, 0) {
		t.Fatal("same seed must give same matrix")
	}
	c := Random(16, 43)
	if matrix.Equal(a, c, 0) {
		t.Fatal("different seeds gave identical matrices")
	}
}

func TestRandomRange(t *testing.T) {
	m := Random(32, 7)
	for _, v := range m.Data {
		if v < -1 || v > 1 {
			t.Fatalf("value %v out of (-1, 1)", v)
		}
	}
}

func TestRandomRect(t *testing.T) {
	m := RandomRect(3, 9, 1)
	if m.Rows != 3 || m.Cols != 9 {
		t.Fatalf("dims %dx%d", m.Rows, m.Cols)
	}
}

func TestDiagonallyDominant(t *testing.T) {
	m := DiagonallyDominant(24, 11)
	for i := 0; i < m.Rows; i++ {
		var off float64
		for j, v := range m.Row(i) {
			if j != i {
				off += math.Abs(v)
			}
		}
		if math.Abs(m.At(i, i)) <= off {
			t.Fatalf("row %d not dominant: |%v| <= %v", i, m.At(i, i), off)
		}
	}
}

func TestSPDIsSymmetric(t *testing.T) {
	m := SPD(12, 13)
	if !matrix.Equal(m, m.Transpose(), 1e-12) {
		t.Fatal("SPD output not symmetric")
	}
	// Positive diagonal is necessary for positive definiteness.
	for i := 0; i < m.Rows; i++ {
		if m.At(i, i) <= 0 {
			t.Fatalf("diagonal %d not positive", i)
		}
	}
}

func TestTridiagonalInverseClosedForm(t *testing.T) {
	n := 12
	a := Tridiagonal(n)
	inv := TridiagonalInverse(n)
	prod, err := matrix.Mul(a, inv)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(prod, matrix.Identity(n)); d > 1e-12 {
		t.Fatalf("closed-form inverse wrong by %g", d)
	}
}

func TestProjectionMatrixInvertible(t *testing.T) {
	m := ProjectionMatrix(20, 5)
	// Strong diagonal ridge keeps it nonsingular; verify dominance-ish
	// structure: diagonal at least the pixel count.
	for i := 0; i < m.Rows; i++ {
		if m.At(i, i) < float64(20) {
			t.Fatalf("ridge missing at %d: %v", i, m.At(i, i))
		}
	}
	if !matrix.IsFinite(m) {
		t.Fatal("non-finite entries")
	}
}

func TestOrthogonal(t *testing.T) {
	q := Orthogonal(24, 17)
	qtq, err := matrix.Mul(q.Transpose(), q)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(qtq, matrix.Identity(24)); d > 1e-12 {
		t.Fatalf("Q^T Q deviates from I by %g", d)
	}
}

// TestGraded pins Graded's spectrum through two symmetric functions of
// the eigenvalues σ_j² of A^T A: the trace and the determinant.
func TestGraded(t *testing.T) {
	m, n, kappa := 60, 4, 1e3
	a := Graded(m, n, kappa, 9)
	if a.Rows != m || a.Cols != n {
		t.Fatalf("dims %dx%d, want %dx%d", a.Rows, a.Cols, m, n)
	}
	if !matrix.Equal(a, Graded(m, n, kappa, 9), 0) {
		t.Fatal("same seed must give same matrix")
	}
	ata, err := matrix.Mul(a.Transpose(), a)
	if err != nil {
		t.Fatal(err)
	}
	f, err := lu.Decompose(ata)
	if err != nil {
		t.Fatal(err)
	}
	trace, det := 0.0, 1.0
	for j := 0; j < n; j++ {
		s := math.Pow(kappa, -float64(j)/float64(n-1))
		trace += s * s
		det *= s * s
	}
	if got := matrix.NormFrobenius(a); math.Abs(got*got-trace) > 1e-12*trace {
		t.Fatalf("|A|_F^2 = %g, want sum σ² = %g", got*got, trace)
	}
	if got := f.Det(); math.Abs(got-det) > 1e-8*det {
		t.Fatalf("det(A^T A) = %g, want prod σ² = %g", got, det)
	}
}

func TestBanded(t *testing.T) {
	n, hb := 30, 3
	m := Banded(n, hb, 18)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := i - j
			if d < 0 {
				d = -d
			}
			if d > hb && m.At(i, j) != 0 {
				t.Fatalf("nonzero outside band at (%d,%d)", i, j)
			}
		}
	}
	// Diagonally dominant, hence nonsingular.
	for i := 0; i < n; i++ {
		var off float64
		for j, v := range m.Row(i) {
			if j != i {
				off += math.Abs(v)
			}
		}
		if m.At(i, i) <= off {
			t.Fatalf("row %d not dominant", i)
		}
	}
}

func TestHilbertSymmetricAndDecaying(t *testing.T) {
	h := Hilbert(8)
	if !matrix.Equal(h, h.Transpose(), 0) {
		t.Fatal("Hilbert not symmetric")
	}
	if h.At(0, 0) != 1 || h.At(7, 7) != 1.0/15 {
		t.Fatalf("corner values wrong: %v %v", h.At(0, 0), h.At(7, 7))
	}
}

func TestTable3Specs(t *testing.T) {
	if len(Table3) != 5 {
		t.Fatalf("Table3 has %d entries", len(Table3))
	}
	spec, err := SpecByName("M4")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Order != 102400 || spec.Jobs != 33 {
		t.Fatalf("M4 = %+v", spec)
	}
	if _, err := SpecByName("M9"); err == nil {
		t.Fatal("unknown spec accepted")
	}
	// Element counts consistent with order (Table 3's "Elements" column
	// is n^2 in billions).
	for _, s := range Table3 {
		billions := float64(s.Order) * float64(s.Order) / 1e9
		if math.Abs(billions-s.Elements) > 0.011 {
			t.Fatalf("%s: n^2 = %.2fG, table says %.2fG", s.Name, billions, s.Elements)
		}
	}
}

func TestPaperNB(t *testing.T) {
	if PaperNB != 3200 {
		t.Fatalf("PaperNB = %d", PaperNB)
	}
}
