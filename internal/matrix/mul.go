package matrix

import "fmt"

// Mul returns the matrix product a*b using a cache-friendly kernel.
//
// The inner kernel iterates a row of a against rows of b (i-k-j order), so b
// is accessed row-major — the same access-pattern argument the paper makes
// for storing U transposed (Section 6.3).
func Mul(a, b *Dense) (*Dense, error) {
	if a.Cols != b.Rows {
		return nil, shapeErr("matrix: Mul", a, b)
	}
	out := New(a.Rows, b.Cols)
	n, p := a.Cols, b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < n; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Data[k*p : (k+1)*p]
			for j, bv := range brow {
				orow[j] += aik * bv
			}
		}
	}
	return out, nil
}

// MulTransB returns a * bT.Transpose(), i.e. the product of a with the
// transpose of bT, without materializing the transpose. This is the paper's
// Equation 8 kernel: when U is stored transposed, [L'2 U2]ij reduces to a
// dot product of two rows, avoiding strided column walks (Section 6.3).
func MulTransB(a, bT *Dense) (*Dense, error) {
	return MulTransBSkip(a, bT, nil, nil)
}

// MulTransBSkip is MulTransB for operands with leading structural zeros:
// the first aLead[i] elements of a's row i and the first bLead[j] elements
// of bT's row j are exact zeros (rows of an upper triangular matrix,
// columns of a lower triangular one), so element (i, j) starts its inner
// product at max(aLead[i], bLead[j]). The skipped terms are ±0 products
// added to a +0 accumulator, so the result is bit-identical to the
// full-length product. A nil lead slice means no leading zeros.
func MulTransBSkip(a, bT *Dense, aLead, bLead []int) (*Dense, error) {
	if a.Cols != bT.Cols {
		return nil, shapeErr("matrix: MulTransB", a, bT)
	}
	if (aLead != nil && len(aLead) != a.Rows) || (bLead != nil && len(bLead) != bT.Rows) {
		return nil, fmt.Errorf("matrix: MulTransBSkip: %d/%d lead entries for %d/%d rows: %w",
			len(aLead), len(bLead), a.Rows, bT.Rows, ErrShape)
	}
	out := New(a.Rows, bT.Rows)
	mulAddTransB(out, a, bT, 0, a.Cols, aLead, bLead)
	return out, nil
}

// MulAddTransB accumulates dst += a * bT.Transpose() with the same
// row-dot kernel as MulTransB. It is the accumulation step of the
// multi-round multiply strategies: each round adds one inner-dimension
// segment's partial product into the running block, and because every
// segment's dot product is formed exactly as MulTransB forms it, the
// distributed accumulation is bit-identical to MulSegTransB's sequential
// left fold.
func MulAddTransB(dst, a, bT *Dense) error {
	if a.Cols != bT.Cols {
		return shapeErr("matrix: MulAddTransB", a, bT)
	}
	if dst.Rows != a.Rows || dst.Cols != bT.Rows {
		return shapeErr("matrix: MulAddTransB dst", dst, a)
	}
	mulAddTransB(dst, a, bT, 0, a.Cols, nil, nil)
	return nil
}

// mulAddTransB is the one inner-product kernel: dst[i][j] += the dot
// product of a's row i and bT's row j over the inner range [k0, k1).
// Every dot product is a single accumulator that starts at +0 and adds
// its products in ascending k, exactly as Dot forms it; the 2x2 register
// block only runs four such accumulators side by side (four loads feed
// four multiply-adds instead of two feeding one). aLead/bLead are
// MulTransBSkip's leading-zero counts: a block starts at the smallest
// start among its four elements, which for the other three only adds
// exact-zero terms.
func mulAddTransB(dst, a, bT *Dense, k0, k1 int, aLead, bLead []int) {
	lead := func(l []int, i int) int {
		if l == nil || l[i] < k0 {
			return k0
		}
		return min(l[i], k1)
	}
	m, n := a.Rows, bT.Rows
	i := 0
	for ; i+1 < m; i += 2 {
		ai := min(lead(aLead, i), lead(aLead, i+1))
		d0, d1 := dst.Row(i), dst.Row(i+1)
		j := 0
		for ; j+1 < n; j += 2 {
			s := max(ai, min(lead(bLead, j), lead(bLead, j+1)))
			a0, a1 := a.Row(i)[s:k1], a.Row(i + 1)[s:k1]
			b0, b1 := bT.Row(j)[s:k1], bT.Row(j + 1)[s:k1]
			a1, b0, b1 = a1[:len(a0)], b0[:len(a0)], b1[:len(a0)]
			var s00, s01, s10, s11 float64
			for k, x0 := range a0 {
				x1, y0, y1 := a1[k], b0[k], b1[k]
				s00 += x0 * y0
				s01 += x0 * y1
				s10 += x1 * y0
				s11 += x1 * y1
			}
			d0[j] += s00
			d0[j+1] += s01
			d1[j] += s10
			d1[j+1] += s11
		}
		if j < n {
			s := max(ai, lead(bLead, j))
			d0[j] += Dot(a.Row(i)[s:k1], bT.Row(j)[s:k1])
			d1[j] += Dot(a.Row(i + 1)[s:k1], bT.Row(j)[s:k1])
		}
	}
	if i < m {
		drow := dst.Row(i)
		for j := 0; j < n; j++ {
			s := max(lead(aLead, i), lead(bLead, j))
			drow[j] += Dot(a.Row(i)[s:k1], bT.Row(j)[s:k1])
		}
	}
}

// MulSegTransB is the sequential reference for the multi-round multiply
// strategies: a * bT.Transpose() computed one inner-dimension segment at
// a time, accumulating segments in ascending order (a left fold). bounds
// holds the segment edges, bounds[0] = 0 and bounds[len-1] = a.Cols.
// With a single segment the result is bit-identical to MulTransB; with
// more, floating-point non-associativity makes the segmented fold the
// ground truth the distributed strategies must match bit for bit.
func MulSegTransB(a, bT *Dense, bounds []int) (*Dense, error) {
	if a.Cols != bT.Cols {
		return nil, shapeErr("matrix: MulSegTransB", a, bT)
	}
	if len(bounds) < 2 || bounds[0] != 0 || bounds[len(bounds)-1] != a.Cols {
		return nil, fmt.Errorf("matrix: MulSegTransB: bad segment bounds %v for inner dim %d", bounds, a.Cols)
	}
	for s := 0; s+1 < len(bounds); s++ {
		if bounds[s+1] < bounds[s] {
			return nil, fmt.Errorf("matrix: MulSegTransB: descending segment bounds %v", bounds)
		}
	}
	out := New(a.Rows, bT.Rows)
	for s := 0; s+1 < len(bounds); s++ {
		mulAddTransB(out, a, bT, bounds[s], bounds[s+1], nil, nil)
	}
	return out, nil
}

// MulNaiveColumnOrder multiplies with the textbook i-j-k loop that walks b
// by column. It exists as the unoptimized comparator for the Section 6.3
// transposed-storage optimization; production code should use Mul or
// MulTransB.
func MulNaiveColumnOrder(a, b *Dense) (*Dense, error) {
	if a.Cols != b.Rows {
		return nil, shapeErr("matrix: MulNaiveColumnOrder", a, b)
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.Data[i*a.Cols+k] * b.Data[k*b.Cols+j]
			}
			out.Data[i*out.Cols+j] = s
		}
	}
	return out, nil
}
