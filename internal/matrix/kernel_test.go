package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// refMulAddTransB is the scalar loop the 2x2 kernel replaced, kept as the
// reference: one Dot per element over the inner range [k0, k1).
func refMulAddTransB(dst, a, bT *Dense, k0, k1 int) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < bT.Rows; j++ {
			dst.Data[i*dst.Cols+j] += Dot(a.Row(i)[k0:k1], bT.Row(j)[k0:k1])
		}
	}
}

func sameBits(a, b *Dense) bool {
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

func TestKernelBitIdenticalToScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	dims := []int{0, 1, 2, 3, 5, 8, 17}
	for _, m := range dims {
		for _, n := range dims {
			for _, k := range dims {
				a, bT := randDense(rng, m, k), randDense(rng, n, k)
				want := New(m, n)
				refMulAddTransB(want, a, bT, 0, k)
				got, err := MulTransB(a, bT)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, want) {
					t.Fatalf("MulTransB %dx%dx%d differs from the scalar loop", m, n, k)
				}
				// Accumulating into a non-zero block, over inner ranges
				// that do not start at zero.
				for _, r := range [][2]int{{0, k}, {k / 3, k}, {k / 2, k / 2}, {1, k - 1}} {
					if r[0] < 0 || r[1] < r[0] {
						continue
					}
					base := randDense(rng, m, n)
					want, got := base.Clone(), base.Clone()
					refMulAddTransB(want, a, bT, r[0], r[1])
					mulAddTransB(got, a, bT, r[0], r[1], nil, nil)
					if !sameBits(got, want) {
						t.Fatalf("mulAddTransB %dx%dx%d over [%d,%d) differs", m, n, k, r[0], r[1])
					}
				}
			}
		}
	}
}

func TestMulSegTransBMatchesSegmentedScalarFold(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a, bT := randDense(rng, 7, 23), randDense(rng, 5, 23)
	for _, bounds := range [][]int{{0, 23}, {0, 8, 23}, {0, 0, 11, 11, 23}, {0, 1, 2, 3, 23}} {
		want := New(7, 5)
		for s := 0; s+1 < len(bounds); s++ {
			refMulAddTransB(want, a, bT, bounds[s], bounds[s+1])
		}
		got, err := MulSegTransB(a, bT, bounds)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("bounds %v: segmented fold differs", bounds)
		}
	}
	if _, err := MulSegTransB(a, bT, []int{0, 9, 4, 23}); err == nil {
		t.Fatal("descending bounds accepted")
	}
}

// TestMulTransBSkipMatchesFullLength: with a upper triangular rows and bT
// holding lower triangular columns (both interleaved subsets, as the
// inversion reducers see them), starting each element at max(i, j) must
// give the bits of the full-length product.
func TestMulTransBSkipMatchesFullLength(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 2, 3, 9, 16, 31} {
		for _, stride := range []int{1, 2, 3} {
			var rows, cols []int
			for r := stride - 1; r < n; r += stride {
				rows = append(rows, r)
			}
			for c := 0; c < n; c += stride {
				cols = append(cols, c)
			}
			a, bT := New(len(rows), n), New(len(cols), n)
			for bi, r := range rows {
				for k := r; k < n; k++ {
					a.Set(bi, k, rng.NormFloat64())
				}
			}
			for bj, c := range cols {
				for k := c; k < n; k++ {
					bT.Set(bj, k, rng.NormFloat64())
				}
			}
			want := New(len(rows), len(cols))
			refMulAddTransB(want, a, bT, 0, n)
			got, err := MulTransBSkip(a, bT, rows, cols)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Fatalf("n=%d stride=%d: triangular skip changed bits", n, stride)
			}
		}
	}
	if _, err := MulTransBSkip(New(2, 3), New(2, 3), []int{0}, nil); err == nil {
		t.Fatal("short lead slice accepted")
	}
}

var kernelSink *Dense

// BenchmarkKernelMulTransB reports the inner-product kernel's rate at the
// shape the register-blocking choice was measured on (128x256x256).
func BenchmarkKernelMulTransB(b *testing.B) {
	rng := rand.New(rand.NewSource(44))
	a, bT := randDense(rng, 128, 256), randDense(rng, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernelSink, _ = MulTransB(a, bT)
	}
	b.ReportMetric(2*128*256*256*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflop/s")
}
