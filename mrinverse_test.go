package mrinverse

import (
	"errors"
	"math"
	"path/filepath"
	"testing"
)

func TestInvertPublicAPI(t *testing.T) {
	a := Random(64, 1)
	opts := DefaultOptions(4)
	opts.NB = 16
	inv, rep, err := Invert(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(a, inv); r > 1e-7 {
		t.Fatalf("residual %g", r)
	}
	if rep.JobsRun != PipelineJobs(64, 16) {
		t.Fatalf("jobs = %d, want %d", rep.JobsRun, PipelineJobs(64, 16))
	}
}

func TestThreeInvertersAgree(t *testing.T) {
	a := Random(48, 2)
	opts := DefaultOptions(4)
	opts.NB = 16
	mr, _, err := Invert(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	local, err := InvertLocal(a)
	if err != nil {
		t.Fatal(err)
	}
	scal, _, err := InvertScaLAPACK(a, ScaLAPACKConfig{Procs: 4, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range mr.Data {
		if math.Abs(mr.Data[i]-local.Data[i]) > 1e-7 || math.Abs(scal.Data[i]-local.Data[i]) > 1e-7 {
			t.Fatalf("inverters disagree at %d: %v %v %v", i, mr.Data[i], local.Data[i], scal.Data[i])
		}
	}
}

func TestDecomposePublicAPI(t *testing.T) {
	a := Random(40, 3)
	opts := DefaultOptions(4)
	opts.NB = 10
	p, l, u, err := Decompose(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Spot check PA = LU at a few entries via full reconstruction.
	n := 40
	for i := 0; i < n; i += 7 {
		for j := 0; j < n; j += 5 {
			var s float64
			for k := 0; k <= i && k < n; k++ {
				s += l.At(i, k) * u.At(k, j)
			}
			if math.Abs(s-a.At(p[i], j)) > 1e-8 {
				t.Fatalf("(LU)[%d][%d] = %v, (PA) = %v", i, j, s, a.At(p[i], j))
			}
		}
	}
}

func TestSolve(t *testing.T) {
	n := 32
	a := DiagonallyDominant(n, 4)
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i%5) - 2
	}
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b[i] += a.At(i, j) * want[j]
		}
	}
	opts := DefaultOptions(2)
	opts.NB = 8
	x, err := Solve(a, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-7 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
	if _, err := Solve(a, b[:3], opts); err == nil {
		t.Fatal("short rhs accepted")
	}
}

func TestSolveDirectAndMultiply(t *testing.T) {
	n, k := 40, 3
	a := Random(n, 71)
	x := NewMatrix(n, k)
	for i := range x.Data {
		x.Data[i] = float64(i%7) - 3
	}
	opts := DefaultOptions(4)
	opts.NB = 12

	b, err := Multiply(a, x, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveDirect(a, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x.Data {
		if d := got.Data[i] - x.Data[i]; d > 1e-8 || d < -1e-8 {
			t.Fatalf("round-trip Multiply+SolveDirect differs at %d by %g", i, d)
		}
	}
}

// TestInvertersValidateInput checks that every inverter of the facade
// rejects nil, rectangular and empty inputs with the typed sentinels
// instead of panicking or answering.
func TestInvertersValidateInput(t *testing.T) {
	inverters := map[string]func(*Matrix) error{
		"Invert": func(a *Matrix) error {
			_, _, err := Invert(a, DefaultOptions(2))
			return err
		},
		"InvertLocal": func(a *Matrix) error {
			_, err := InvertLocal(a)
			return err
		},
		"InvertScaLAPACK": func(a *Matrix) error {
			_, _, err := InvertScaLAPACK(a, ScaLAPACKConfig{Procs: 2})
			return err
		},
		"InvertSpark": func(a *Matrix) error {
			_, err := InvertSpark(a, 2, 2)
			return err
		},
		"AutoInvert": func(a *Matrix) error {
			_, _, err := AutoInvert(a, ClusterSpec{Nodes: 2}, 0)
			return err
		},
	}
	inputs := []struct {
		name string
		a    *Matrix
		want error
	}{
		{"nil", nil, ErrNilMatrix},
		{"3x2", NewMatrix(3, 2), ErrNotSquare},
		{"0x0", NewMatrix(0, 0), ErrEmptyMatrix},
	}
	for name, invert := range inverters {
		for _, in := range inputs {
			if err := invert(in.a); !errors.Is(err, in.want) {
				t.Errorf("%s(%s): err = %v, want %v", name, in.name, err, in.want)
			}
		}
	}
}

func TestResidualInfiniteOnShapeMismatch(t *testing.T) {
	if r := Residual(NewMatrix(2, 2), NewMatrix(3, 3)); !math.IsInf(r, 1) {
		t.Fatalf("residual = %v", r)
	}
}

func TestMatrixFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := Random(9, 5)
	for _, name := range []string{"a.txt", "a.bin", "a.mtx"} {
		path := filepath.Join(dir, name)
		if err := WriteMatrixFile(path, m); err != nil {
			t.Fatal(err)
		}
		got, err := ReadMatrixFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range m.Data {
			if got.Data[i] != m.Data[i] {
				t.Fatalf("%s: round-trip mismatch", name)
			}
		}
	}
	if _, err := ReadMatrixFile(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestConstructors(t *testing.T) {
	if m := NewMatrix(2, 3); m.Rows != 2 || m.Cols != 3 {
		t.Fatal("NewMatrix wrong")
	}
	if m := FromRows([][]float64{{1, 2}}); m.At(0, 1) != 2 {
		t.Fatal("FromRows wrong")
	}
	if id := Identity(3); id.At(1, 1) != 1 || id.At(0, 1) != 0 {
		t.Fatal("Identity wrong")
	}
}
