package matrix

import (
	"math/rand"
	"strings"
	"testing"
)

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewZeroInitialized(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("dims = %dx%d", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v", m.At(2, 1))
	}
	if got := FromRows(nil); got.Rows != 0 || got.Cols != 0 {
		t.Fatalf("FromRows(nil) = %dx%d", got.Rows, got.Cols)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if id.At(i, j) != want {
				t.Fatalf("I[%d][%d] = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestAtSetBounds(t *testing.T) {
	m := New(2, 2)
	for _, tc := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%d,%d) did not panic", tc[0], tc[1])
				}
			}()
			m.At(tc[0], tc[1])
		}()
	}
}

func TestRowIsView(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(1)
	r[0] = 99
	if m.At(1, 0) != 99 {
		t.Fatal("Row must alias backing storage")
	}
}

func TestColIsCopy(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Col(0)
	if c[0] != 1 || c[1] != 3 {
		t.Fatalf("Col(0) = %v", c)
	}
	c[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("Col must copy")
	}
}

func TestClone(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 77)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestBlockAndSetBlock(t *testing.T) {
	m := FromRows([][]float64{
		{1, 2, 3, 4},
		{5, 6, 7, 8},
		{9, 10, 11, 12},
		{13, 14, 15, 16},
	})
	b := m.Block(1, 3, 2, 4)
	want := FromRows([][]float64{{7, 8}, {11, 12}})
	if !Equal(b, want, 0) {
		t.Fatalf("Block = %v", b)
	}
	// Mutating the block must not touch the parent (Block copies).
	b.Set(0, 0, -1)
	if m.At(1, 2) != 7 {
		t.Fatal("Block must copy")
	}

	m.SetBlock(0, 0, want)
	if m.At(0, 0) != 7 || m.At(1, 1) != 12 {
		t.Fatalf("SetBlock result:\n%v", m)
	}
}

func TestBlockRoundTripsWholeMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randDense(rng, 7, 5)
	// Partition into quadrants the way Figure 1 splits A, then reassemble.
	h, w := 3, 2
	a1 := m.Block(0, h, 0, w)
	a2 := m.Block(0, h, w, m.Cols)
	a3 := m.Block(h, m.Rows, 0, w)
	a4 := m.Block(h, m.Rows, w, m.Cols)
	re := New(m.Rows, m.Cols)
	re.SetBlock(0, 0, a1)
	re.SetBlock(0, w, a2)
	re.SetBlock(h, 0, a3)
	re.SetBlock(h, w, a4)
	if !Equal(m, re, 0) {
		t.Fatal("quadrant partition + reassembly must be lossless")
	}
}

func TestBlockBoundsPanic(t *testing.T) {
	m := New(3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Block(0, 4, 0, 1)
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.Transpose()
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatalf("dims %dx%d", mt.Rows, mt.Cols)
	}
	if mt.At(2, 1) != 6 || mt.At(0, 1) != 4 {
		t.Fatalf("transpose wrong:\n%v", mt)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randDense(rng, 9, 4)
	if !Equal(m, m.Transpose().Transpose(), 0) {
		t.Fatal("(A^T)^T != A")
	}
}

func TestFillAndApply(t *testing.T) {
	m := New(2, 2)
	m.Fill(3)
	if m.At(1, 1) != 3 {
		t.Fatal("Fill failed")
	}
	m.Apply(func(i, j int, v float64) float64 { return v + float64(i*10+j) })
	if m.At(1, 1) != 14 {
		t.Fatalf("Apply failed: %v", m.At(1, 1))
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := FromRows([][]float64{{1, 2}, {3, 4}})
	if s := small.String(); !strings.Contains(s, "1") || !strings.Contains(s, "4") {
		t.Fatalf("String() = %q", s)
	}
	large := New(20, 20)
	if s := large.String(); !strings.Contains(s, "20x20") {
		t.Fatalf("large String() = %q", s)
	}
}

func TestIsSquareDims(t *testing.T) {
	m := New(3, 4)
	if m.IsSquare() {
		t.Fatal("3x4 reported square")
	}
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d", r, c)
	}
	if !New(5, 5).IsSquare() {
		t.Fatal("5x5 not square")
	}
}
