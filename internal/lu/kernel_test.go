package lu

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
	"repro/internal/workload"
)

// The loops the blocked kernels replaced, kept as references: every kernel
// must reproduce their results bit for bit.

// refInvertLowerColumn is Equation 4 for one column, walking dst by column.
func refInvertLowerColumn(l *matrix.Dense, j int, unitDiagonal bool, dst *matrix.Dense) {
	diag := func(i int) float64 {
		if unitDiagonal {
			return 1
		}
		return l.At(i, i)
	}
	dst.Set(j, j, 1/diag(j))
	for i := j + 1; i < l.Rows; i++ {
		var s float64
		row := l.Row(i)
		for k := j; k < i; k++ {
			s += row[k] * dst.At(k, j)
		}
		dst.Set(i, j, -s/diag(i))
	}
}

func refLowerInverse(l *matrix.Dense, unitDiagonal bool) *matrix.Dense {
	inv := matrix.New(l.Rows, l.Rows)
	for j := 0; j < l.Rows; j++ {
		refInvertLowerColumn(l, j, unitDiagonal, inv)
	}
	return inv
}

// refInverse is the former Factorization.Inverse: explicit factors, full
// triangular inverses, the i-k-j product, then the column permutation.
func refInverse(f *Factorization) *matrix.Dense {
	linv := refLowerInverse(f.L(), true)
	uinv := refLowerInverse(f.U().Transpose(), false).Transpose()
	prod, _ := matrix.Mul(uinv, linv)
	return f.P.ApplyCols(prod)
}

func refSolveRowsUpperTrans(ut, b *matrix.Dense) *matrix.Dense {
	x := matrix.New(b.Rows, b.Cols)
	for r := 0; r < b.Rows; r++ {
		brow, xrow := b.Row(r), x.Row(r)
		for j := 0; j < ut.Rows; j++ {
			urow := ut.Row(j)
			s := brow[j]
			for k := 0; k < j; k++ {
				s -= xrow[k] * urow[k]
			}
			xrow[j] = s / urow[j]
		}
	}
	return x
}

func sameBits(a, b *matrix.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// lowerOf returns a well-conditioned lower triangular matrix of order n
// with a general diagonal.
func lowerOf(n int, seed int64) *matrix.Dense {
	l := workload.DiagonallyDominant(n, seed)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l.Set(i, j, 0)
		}
	}
	return l
}

func TestKernelLowerInverseColumnsBitIdentical(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 9, 16, 33} {
		l := lowerOf(n, int64(100+n))
		for _, unit := range []bool{true, false} {
			want := refLowerInverse(l, unit)
			if got := LowerInverse(l, unit); !sameBits(got, want) {
				t.Fatalf("n=%d unit=%v: LowerInverse differs from the column loop", n, unit)
			}
			// Index sets that are not multiples of four, interleaved and
			// out of order.
			for _, idx := range [][]int{{}, {n - 1}, {0, n / 2}, {n - 1, 0, n / 3}, interleave(n, 3, 1), interleave(n, 5, 0)} {
				ok := true
				for _, c := range idx {
					ok = ok && c >= 0 && c < n
				}
				if !ok {
					continue
				}
				got := LowerInverseColumns(l, idx, unit)
				for bi, c := range idx {
					for i, v := range got.Row(bi) {
						if math.Float64bits(v) != math.Float64bits(want.At(i, c)) {
							t.Fatalf("n=%d unit=%v idx=%v: column %d row %d differs", n, unit, idx, c, i)
						}
					}
				}
			}
		}
	}
}

func interleave(n, m, j int) []int {
	var out []int
	for k := j; k < n; k += m {
		out = append(out, k)
	}
	return out
}

// TestKernelInvertLowerRowsStreamed: feeding the factor in row bands of any
// height gives the bits of the one-shot inversion.
func TestKernelInvertLowerRowsStreamed(t *testing.T) {
	n := 29
	l := lowerOf(n, 7)
	idx := interleave(n, 2, 1)
	want := LowerInverseColumns(l, idx, false)
	for _, h := range []int{1, 4, 7, n, n + 5} {
		got := matrix.New(len(idx), n)
		for r0 := 0; r0 < n; r0 += h {
			r1 := min(r0+h, n)
			InvertLowerRows(l.Block(r0, r1, 0, n), r0, idx, false, got)
		}
		if !sameBits(got, want) {
			t.Fatalf("band height %d: streamed inversion differs", h)
		}
	}
}

func TestKernelUpperInverseBitIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 7, 20} {
		u := lowerOf(n, int64(200+n)).Transpose()
		want := refLowerInverse(u.Transpose(), false).Transpose()
		got, err := UpperInverse(u)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("n=%d: UpperInverse differs", n)
		}
	}
}

func TestKernelInverseBitIdenticalToExplicitFactors(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 21, 64} {
		f, err := Decompose(workload.Random(n, int64(300+n)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.Inverse()
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, refInverse(f)) {
			t.Fatalf("n=%d: Inverse differs from the explicit-factor dataflow", n)
		}
	}
}

func TestKernelSolveRowsUpperTransBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 2, 5, 16} {
		ut := lowerOf(n, int64(400+n))
		for _, rows := range []int{0, 1, 2, 3, 4, 5, 7, 8, 13} {
			b := matrix.New(rows, n)
			for i := range b.Data {
				b.Data[i] = rng.NormFloat64()
			}
			got, err := SolveRowsUpperTrans(ut, b)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, refSolveRowsUpperTrans(ut, b)) {
				t.Fatalf("n=%d rows=%d: blocked solve differs from the row loop", n, rows)
			}
		}
	}
}

var kernelSink *matrix.Dense

func BenchmarkKernelLowerInverse(b *testing.B) {
	const n = 256
	l := lowerOf(n, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernelSink = LowerInverse(l, true)
	}
	b.ReportMetric(float64(n)*n*n/3*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflop/s")
}

func BenchmarkKernelSolveRowsUpperTrans(b *testing.B) {
	const n = 256
	ut := lowerOf(n, 2)
	rhs := workload.Random(n, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernelSink, _ = SolveRowsUpperTrans(ut, rhs)
	}
	b.ReportMetric(float64(n)*n*n*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflop/s")
}

func BenchmarkKernelInverse(b *testing.B) {
	const n = 256
	f, err := Decompose(workload.Random(n, 4))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernelSink, _ = f.Inverse()
	}
	b.ReportMetric(2*float64(n)*n*n*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflop/s")
}

// TestQuickBlockedMatchesScalar: for random orders, diagonals, index sets
// and right-hand-side counts the four-wide triangular kernels give the
// bits of the scalar loops.
func TestQuickBlockedMatchesScalar(t *testing.T) {
	f := func(seed int64, nRaw, rowsRaw, strideRaw uint8, unit bool) bool {
		n := int(nRaw%40) + 1
		l := lowerOf(n, seed)
		m := int(strideRaw%5) + 1
		idx := interleave(n, m, int(strideRaw/5)%m)
		want := refLowerInverse(l, unit)
		got := LowerInverseColumns(l, idx, unit)
		for bi, c := range idx {
			for i, v := range got.Row(bi) {
				if math.Float64bits(v) != math.Float64bits(want.At(i, c)) {
					return false
				}
			}
		}
		b := workload.RandomRect(int(rowsRaw%11), n, seed+1)
		x, err := SolveRowsUpperTrans(l, b)
		return err == nil && sameBits(x, refSolveRowsUpperTrans(l, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestInvertBlocked: the single-node inverse runs on the blocked kernels
// end to end; at an order that is a multiple of neither block width it
// meets the residual criterion, and a factorization whose U has a zero
// pivot is refused rather than inverted.
func TestInvertBlocked(t *testing.T) {
	a := workload.Random(97, 811)
	f, err := Decompose(a)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := f.Inverse()
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
	f.LU.Set(40, 40, 0)
	if _, err := f.Inverse(); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero pivot: err = %v", err)
	}
}
