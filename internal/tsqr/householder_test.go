package tsqr

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
	"repro/internal/workload"
)

func orthonormalColumns(t *testing.T, q *matrix.Dense, tol float64) {
	t.Helper()
	qtq, err := matrix.Mul(q.Transpose(), q)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(qtq, matrix.Identity(q.Cols)); d > tol {
		t.Fatalf("Q^T Q deviates from I by %g", d)
	}
}

func upperTriangular(t *testing.T, r *matrix.Dense, tol float64) {
	t.Helper()
	for i := 1; i < r.Rows; i++ {
		for j := 0; j < i && j < r.Cols; j++ {
			if math.Abs(r.At(i, j)) > tol {
				t.Fatalf("R[%d][%d] = %g below diagonal", i, j, r.At(i, j))
			}
		}
	}
}

func TestHouseholder(t *testing.T) {
	a := workload.Random(15, 43)
	f, err := householder(a)
	if err != nil {
		t.Fatal(err)
	}
	orthonormalColumns(t, f.Q, 1e-12)
	upperTriangular(t, f.R, 1e-12)
	qr, _ := matrix.Mul(f.Q, f.R)
	if d := matrix.MaxAbsDiff(qr, a); d > 1e-12 {
		t.Fatalf("QR != A by %g", d)
	}
}

// Only wide matrices (cols > rows) are rejected; tall ones get a thin QR.
func TestHouseholderNotSquare(t *testing.T) {
	if _, err := householder(matrix.New(3, 4)); !errors.Is(err, ErrNotTall) {
		t.Fatalf("err = %v", err)
	}
}

func TestHouseholderTall(t *testing.T) {
	for _, dims := range [][2]int{{8, 3}, {20, 5}, {7, 6}, {9, 1}} {
		m, n := dims[0], dims[1]
		a := workload.RandomRect(m, n, int64(100*m+n))
		f, err := householder(a)
		if err != nil {
			t.Fatalf("%dx%d: %v", m, n, err)
		}
		if f.Q.Rows != m || f.Q.Cols != n || f.R.Rows != n || f.R.Cols != n {
			t.Fatalf("%dx%d: thin shapes Q %dx%d R %dx%d",
				m, n, f.Q.Rows, f.Q.Cols, f.R.Rows, f.R.Cols)
		}
		orthonormalColumns(t, f.Q, 1e-12)
		upperTriangular(t, f.R, 1e-12)
		qr, err := matrix.Mul(f.Q, f.R)
		if err != nil {
			t.Fatal(err)
		}
		if d := matrix.MaxAbsDiff(qr, a); d > 1e-12 {
			t.Fatalf("%dx%d: QR != A by %g", m, n, d)
		}
	}
}

func TestQuickHouseholderReconstructs(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%12) + 1
		a := workload.DiagonallyDominant(n, seed)
		fac, err := householder(a)
		if err != nil {
			return false
		}
		qr, err := matrix.Mul(fac.Q, fac.R)
		return err == nil && matrix.MaxAbsDiff(qr, a) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
