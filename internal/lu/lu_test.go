package lu

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
	"repro/internal/workload"
)

func TestDecomposeReconstructsPA(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 16, 33, 64} {
		a := workload.Random(n, int64(n))
		f, err := Decompose(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		lu, err := matrix.Mul(f.L(), f.U())
		if err != nil {
			t.Fatal(err)
		}
		pa := f.P.ApplyRows(a)
		if d := matrix.MaxAbsDiff(lu, pa); d > 1e-10 {
			t.Fatalf("n=%d: max|LU - PA| = %g", n, d)
		}
	}
}

func TestDecomposeNotSquare(t *testing.T) {
	_, err := Decompose(matrix.New(2, 3))
	if !errors.Is(err, ErrNotSquare) {
		t.Fatalf("err = %v", err)
	}
}

func TestDecomposeSingular(t *testing.T) {
	// Two identical rows.
	a := matrix.FromRows([][]float64{{1, 2}, {1, 2}})
	if _, err := Decompose(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v", err)
	}
	// All-zero matrix.
	if _, err := Decompose(matrix.New(3, 3)); !errors.Is(err, ErrSingular) {
		t.Fatal("zero matrix accepted")
	}
}

func TestPivotingSelectsMaxElement(t *testing.T) {
	// Without pivoting this matrix has a tiny leading pivot; with partial
	// pivoting the factorization stays accurate.
	a := matrix.FromRows([][]float64{
		{1e-14, 1},
		{1, 1},
	})
	f, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	if f.P[0] != 1 {
		t.Fatalf("pivot did not swap: P = %v", f.P)
	}
	inv, err := f.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	res, err := matrix.IdentityResidual(a, inv)
	if err != nil {
		t.Fatal(err)
	}
	if res > 1e-12 {
		t.Fatalf("residual = %g", res)
	}
}

func TestLUnitDiagonal(t *testing.T) {
	a := workload.Random(10, 99)
	f, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	l := f.L()
	for i := 0; i < 10; i++ {
		if l.At(i, i) != 1 {
			t.Fatalf("L[%d][%d] = %v, want 1", i, i, l.At(i, i))
		}
		for j := i + 1; j < 10; j++ {
			if l.At(i, j) != 0 {
				t.Fatal("L has entries above diagonal")
			}
		}
	}
	u := f.U()
	for i := 1; i < 10; i++ {
		for j := 0; j < i; j++ {
			if u.At(i, j) != 0 {
				t.Fatal("U has entries below diagonal")
			}
		}
	}
}

func TestDet(t *testing.T) {
	a := matrix.FromRows([][]float64{{4, 3}, {6, 3}})
	f, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Det(); math.Abs(d-(-6)) > 1e-12 {
		t.Fatalf("det = %v, want -6", d)
	}
	// det of identity is 1 regardless of order.
	f2, _ := Decompose(matrix.Identity(7))
	if d := f2.Det(); math.Abs(d-1) > 1e-12 {
		t.Fatalf("det(I) = %v", d)
	}
}

func TestSolveVec(t *testing.T) {
	a := workload.DiagonallyDominant(24, 5)
	f, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 24)
	for i := range want {
		want[i] = float64(i) - 11.5
	}
	b, err := matrix.MulVec(a, want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.SolveVec(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := f.SolveVec(make([]float64, 3)); err == nil {
		t.Fatal("short rhs accepted")
	}
}

func TestSolveMatrixRHS(t *testing.T) {
	a := workload.DiagonallyDominant(12, 6)
	f, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	x := workload.RandomRect(12, 4, 7)
	b, err := matrix.Mul(a, x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(got, x); d > 1e-9 {
		t.Fatalf("Solve residual %g", d)
	}
	if _, err := f.Solve(matrix.New(3, 3)); err == nil {
		t.Fatal("wrong-shape rhs accepted")
	}
}

func TestInverseResidual(t *testing.T) {
	for _, n := range []int{1, 2, 4, 10, 32, 100} {
		a := workload.Random(n, int64(100+n))
		inv, err := Invert(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		res, err := matrix.IdentityResidual(a, inv)
		if err != nil {
			t.Fatal(err)
		}
		// The paper's Section 7.2 criterion at much larger scale is 1e-5;
		// at our orders double precision does far better.
		if res > 1e-8 {
			t.Fatalf("n=%d: residual %g", n, res)
		}
		// Also the left inverse: A^-1 A = I.
		res2, err := matrix.IdentityResidual(inv, a)
		if err != nil {
			t.Fatal(err)
		}
		if res2 > 1e-8 {
			t.Fatalf("n=%d: left residual %g", n, res2)
		}
	}
}

func TestInvertTridiagonalClosedForm(t *testing.T) {
	n := 40
	inv, err := Invert(workload.Tridiagonal(n))
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(inv, workload.TridiagonalInverse(n)); d > 1e-9 {
		t.Fatalf("closed-form mismatch %g", d)
	}
}

func TestInvertIdentityAndDiagonal(t *testing.T) {
	inv, err := Invert(matrix.Identity(9))
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(inv, matrix.Identity(9), 1e-14) {
		t.Fatal("I^-1 != I")
	}
	d := matrix.New(3, 3)
	d.Set(0, 0, 2)
	d.Set(1, 1, -4)
	d.Set(2, 2, 0.5)
	inv, err = Invert(d)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.New(3, 3)
	want.Set(0, 0, 0.5)
	want.Set(1, 1, -0.25)
	want.Set(2, 2, 2)
	if !matrix.Equal(inv, want, 1e-14) {
		t.Fatalf("diag inverse = %v", inv)
	}
}

func TestLowerInverse(t *testing.T) {
	l := matrix.FromRows([][]float64{
		{2, 0, 0},
		{1, 3, 0},
		{4, 5, 6},
	})
	inv := LowerInverse(l, false)
	prod, _ := matrix.Mul(l, inv)
	if d := matrix.MaxAbsDiff(prod, matrix.Identity(3)); d > 1e-14 {
		t.Fatalf("L L^-1 residual %g", d)
	}
	// Result must be lower triangular.
	if inv.At(0, 1) != 0 || inv.At(0, 2) != 0 || inv.At(1, 2) != 0 {
		t.Fatal("inverse of lower triangular not lower triangular")
	}
}

func TestLowerInverseUnitDiagonal(t *testing.T) {
	// With unitDiagonal, stored diagonal values must be ignored — this is
	// how the combined LU storage is interpreted.
	l := matrix.FromRows([][]float64{
		{42, 0},
		{3, 42},
	})
	inv := LowerInverse(l, true)
	want := matrix.FromRows([][]float64{
		{1, 0},
		{-3, 1},
	})
	if !matrix.Equal(inv, want, 1e-14) {
		t.Fatalf("unit-diag inverse = %v", inv)
	}
}

func TestUpperInverse(t *testing.T) {
	u := matrix.FromRows([][]float64{
		{2, 7, -1},
		{0, 3, 4},
		{0, 0, 5},
	})
	inv, err := UpperInverse(u)
	if err != nil {
		t.Fatal(err)
	}
	prod, _ := matrix.Mul(u, inv)
	if d := matrix.MaxAbsDiff(prod, matrix.Identity(3)); d > 1e-14 {
		t.Fatalf("U U^-1 residual %g", d)
	}
	if inv.At(1, 0) != 0 || inv.At(2, 0) != 0 || inv.At(2, 1) != 0 {
		t.Fatal("inverse of upper triangular not upper triangular")
	}
}

func TestUpperInverseSingular(t *testing.T) {
	u := matrix.FromRows([][]float64{{1, 2}, {0, 0}})
	if _, err := UpperInverse(u); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v", err)
	}
}

func TestInvertLowerColumnIndependence(t *testing.T) {
	// Computing columns in any order must give the same matrix — the
	// property that makes the triangular inversion job partitionable.
	l := workload.DiagonallyDominant(20, 8)
	// Zero the upper triangle so l is lower triangular.
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			l.Set(i, j, 0)
		}
	}
	seq := LowerInverse(l, false)
	order := []int{19, 3, 0, 11, 7, 15, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14, 16, 17, 18}
	cols := LowerInverseColumns(l, order, false)
	scattered := matrix.New(20, 20)
	for bi, j := range order {
		for i, v := range cols.Row(bi) {
			scattered.Set(i, j, v)
		}
	}
	if !matrix.Equal(seq, scattered, 0) {
		t.Fatal("column order affected result")
	}
}

func TestInverseOfInverse(t *testing.T) {
	a := workload.DiagonallyDominant(16, 9)
	inv, err := Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Invert(inv)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(back, a); d > 1e-8 {
		t.Fatalf("(A^-1)^-1 differs from A by %g", d)
	}
}

// Property: for random diagonally-dominant matrices, PA = LU holds and the
// inverse satisfies the residual criterion.
func TestQuickDecomposeInvert(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%24) + 1
		a := workload.DiagonallyDominant(n, seed)
		fac, err := Decompose(a)
		if err != nil {
			return false
		}
		lu, err := matrix.Mul(fac.L(), fac.U())
		if err != nil {
			return false
		}
		if matrix.MaxAbsDiff(lu, fac.P.ApplyRows(a)) > 1e-9 {
			return false
		}
		inv, err := fac.Inverse()
		if err != nil {
			return false
		}
		res, err := matrix.IdentityResidual(a, inv)
		return err == nil && res < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: det(A)*det(A^-1) == 1.
func TestQuickDetInverse(t *testing.T) {
	f := func(seed int64) bool {
		a := workload.DiagonallyDominant(8, seed)
		fa, err := Decompose(a)
		if err != nil {
			return false
		}
		inv, err := fa.Inverse()
		if err != nil {
			return false
		}
		fi, err := Decompose(inv)
		if err != nil {
			return false
		}
		return math.Abs(fa.Det()*fi.Det()-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
