package scalapack

import (
	"errors"
	"testing"

	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// The tests below exercise the pr x pc process grid on shapes where both
// grid dimensions exceed one.

func TestInvert2DMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		n, procs, bs int
	}{
		{16, 1, 4},
		{24, 2, 4},  // 2x1 grid
		{32, 4, 4},  // 2x2 grid
		{33, 4, 4},  // odd order
		{48, 6, 8},  // 3x2 grid
		{40, 9, 2},  // 3x3 grid
		{20, 4, 64}, // block larger than matrix share
	} {
		a := workload.Random(tc.n, int64(tc.n*7+tc.procs))
		got, st, err := Invert(a, Config{Procs: tc.procs, BlockSize: tc.bs})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		want, err := lu.Invert(a)
		if err != nil {
			t.Fatal(err)
		}
		if d := matrix.MaxAbsDiff(got, want); d > 1e-8 {
			t.Fatalf("%+v: differs from reference by %g", tc, d)
		}
		if tc.procs > 1 && st.BytesTransferred == 0 {
			t.Fatalf("%+v: no communication recorded", tc)
		}
	}
}

func TestInvert2DPivoting(t *testing.T) {
	// A permutation-like matrix needing swaps at every step.
	a := matrix.FromRows([][]float64{
		{0, 0, 3, 0},
		{2, 0, 0, 0},
		{0, 0, 0, 5},
		{0, 7, 0, 0},
	})
	inv, _, err := Invert(a, Config{Procs: 4, BlockSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := matrix.IdentityResidual(a, inv)
	if err != nil {
		t.Fatal(err)
	}
	if res > 1e-12 {
		t.Fatalf("residual %g", res)
	}
}

func TestInvert2DSingular(t *testing.T) {
	sing := matrix.FromRows([][]float64{{1, 2}, {2, 4}})
	if _, _, err := Invert(sing, Config{Procs: 4, BlockSize: 1}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v", err)
	}
}

func TestInvert2DNonSquareAndEmpty(t *testing.T) {
	if _, _, err := Invert(matrix.New(2, 3), Config{Procs: 2}); err == nil {
		t.Fatal("non-square accepted")
	}
	inv, _, err := Invert(matrix.New(0, 0), Config{Procs: 2})
	if err != nil || inv.Rows != 0 {
		t.Fatalf("empty: %v %v", inv, err)
	}
}

func TestGrid2DFactorization(t *testing.T) {
	for _, tc := range []struct{ procs, pr, pc int }{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {6, 3, 2}, {8, 4, 2}, {12, 4, 3}, {16, 4, 4},
	} {
		c := Config{Procs: tc.procs, BlockSize: 8}
		pr, pc := c.normalize()
		if pr != tc.pr || pc != tc.pc {
			t.Errorf("Procs=%d: grid %dx%d, want %dx%d", tc.procs, pr, pc, tc.pr, tc.pc)
		}
	}
}

func TestInvert2DResidualCriterion(t *testing.T) {
	a := workload.Random(60, 4002)
	inv, _, err := Invert(a, Config{Procs: 6, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := matrix.IdentityResidual(a, inv)
	if err != nil {
		t.Fatal(err)
	}
	if res > 1e-8 {
		t.Fatalf("residual %g", res)
	}
}
