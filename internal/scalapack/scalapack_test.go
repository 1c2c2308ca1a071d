package scalapack

import (
	"errors"
	"testing"

	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/workload"
)

func TestInvertMatchesSingleNode(t *testing.T) {
	for _, tc := range []struct {
		n, procs, bs int
	}{
		{1, 1, 1},
		{16, 1, 4},
		{32, 2, 4},
		{33, 3, 4}, // odd order, uneven panels, 3x1 grid
		{48, 4, 8},
		{64, 4, 128}, // block size larger than panel share
		{29, 7, 3},   // 7x1 grid
		{40, 8, 2},   // 4x2 grid
	} {
		a := workload.Random(tc.n, int64(tc.n*tc.procs+tc.bs))
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

func TestInvertResidual(t *testing.T) {
	a := workload.Random(50, 1001)
	inv, _, err := Invert(a, Config{Procs: 4, BlockSize: 4})
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

func TestInvertSingular(t *testing.T) {
	sing := matrix.FromRows([][]float64{{1, 2}, {2, 4}})
	if _, _, err := Invert(sing, Config{Procs: 2, BlockSize: 1}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v", err)
	}
}

func TestInvertNonSquare(t *testing.T) {
	if _, _, err := Invert(matrix.New(2, 3), Config{Procs: 1}); err == nil {
		t.Fatal("non-square accepted")
	}
}

func TestInvertEmpty(t *testing.T) {
	inv, _, err := Invert(matrix.New(0, 0), Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if inv.Rows != 0 {
		t.Fatal("not empty")
	}
}

func TestInvertNeedsPivoting(t *testing.T) {
	a := matrix.FromRows([][]float64{
		{0, 1, 0},
		{0, 0, 2},
		{4, 0, 0},
	})
	inv, _, err := Invert(a, Config{Procs: 3, BlockSize: 1})
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

func TestTransferGrowsWithProcs(t *testing.T) {
	// The paper's Table 2 point: ScaLAPACK's transfer volume grows with
	// the node count (m0 n^2), which is why it loses at scale.
	a := workload.Random(48, 1002)
	volume := func(procs int) int64 {
		_, st, err := Invert(a, Config{Procs: procs, BlockSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		return st.BytesTransferred
	}
	v2, v4, v8 := volume(2), volume(4), volume(8)
	if !(v2 < v4 && v4 < v8) {
		t.Fatalf("transfer not increasing with procs: %d, %d, %d", v2, v4, v8)
	}
}

func TestSingleProcNoTransferGrowth(t *testing.T) {
	a := workload.Random(24, 1003)
	_, st, err := Invert(a, Config{Procs: 1, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	// One process: a 1x1 grid has no peer to send a panel, a factor or a
	// result column to.
	if st.BytesTransferred != 0 {
		t.Fatalf("single-proc transfer = %d", st.BytesTransferred)
	}
}

func TestConfigNormalize(t *testing.T) {
	c := Config{}
	c.normalize()
	if c.Procs != 1 || c.BlockSize != DefaultBlockSize {
		t.Fatalf("normalized = %+v", c)
	}
}
