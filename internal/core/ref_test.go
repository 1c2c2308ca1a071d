package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/dfs"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// storeGrid writes m as a g x g grid of block files and returns the ref.
func storeGrid(t *testing.T, fs *dfs.FS, m *matrix.Dense, g int, transposed bool) matRef {
	t.Helper()
	ref := matRef{Rows: m.Rows, Cols: m.Cols}
	for i := 0; i < g; i++ {
		r0, r1 := bandBounds(m.Rows, g, i)
		for j := 0; j < g; j++ {
			c0, c1 := bandBounds(m.Cols, g, j)
			if r0 == r1 || c0 == c1 {
				continue
			}
			blk := m.Block(r0, r1, c0, c1)
			if transposed {
				blk = blk.Transpose()
			}
			path := fmt.Sprintf("grid/%d.%d", i, j)
			if err := fs.WriteMatrix(path, blk); err != nil {
				t.Fatal(err)
			}
			ref.Blocks = append(ref.Blocks, blockFile{Path: path, R0: r0, R1: r1, C0: c0, C1: c1, Transposed: transposed})
		}
	}
	return ref
}

func TestReadRegionAssemblesExactly(t *testing.T) {
	fs := dfs.New(4, 1)
	m := workload.Random(23, 71)
	ref := storeGrid(t, fs, m, 4, false)
	rd := masterReader(fs)

	full, err := readAll(rd, ref)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(full, m, 0) {
		t.Fatal("full region differs")
	}

	// Arbitrary interior region crossing block boundaries.
	got, err := readRegion(rd, ref, 3, 17, 5, 22)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got, m.Block(3, 17, 5, 22), 0) {
		t.Fatal("interior region differs")
	}
}

func TestReadRegionTransposedFiles(t *testing.T) {
	fs := dfs.New(2, 1)
	m := workload.Random(15, 72)
	ref := storeGrid(t, fs, m, 3, true)
	got, err := readRegion(masterReader(fs), ref, 2, 14, 1, 13)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got, m.Block(2, 14, 1, 13), 0) {
		t.Fatal("transposed-file region differs")
	}
}

func TestReadRegionMissingCoverage(t *testing.T) {
	fs := dfs.New(1, 1)
	m := workload.Random(8, 73)
	ref := storeGrid(t, fs, m, 2, false)
	// Drop one block from the index.
	ref.Blocks = ref.Blocks[:len(ref.Blocks)-1]
	if _, err := readAll(masterReader(fs), ref); err == nil {
		t.Fatal("incomplete coverage accepted")
	}
}

func TestReadRegionMissingFile(t *testing.T) {
	ref := matRef{Rows: 2, Cols: 2, Blocks: []blockFile{{Path: "nope", R0: 0, R1: 2, C0: 0, C1: 2}}}
	fs := dfs.New(1, 1)
	if _, err := readAll(masterReader(fs), ref); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestReadRegionShapeMismatch(t *testing.T) {
	fs := dfs.New(1, 1)
	if err := fs.WriteMatrix("wrong", matrix.New(3, 3)); err != nil {
		t.Fatal(err)
	}
	ref := matRef{Rows: 2, Cols: 2, Blocks: []blockFile{{Path: "wrong", R0: 0, R1: 2, C0: 0, C1: 2}}}
	if _, err := readAll(masterReader(fs), ref); err == nil {
		t.Fatal("stored/indexed shape mismatch accepted")
	}
}

func TestSliceMetadataOnly(t *testing.T) {
	ref := matRef{Rows: 10, Cols: 10, Blocks: []blockFile{
		{Path: "a", R0: 0, R1: 5, C0: 0, C1: 10},
		{Path: "b", R0: 5, R1: 10, C0: 0, C1: 10},
	}}
	s := ref.slice(2, 7, 3, 9)
	if s.Rows != 5 || s.Cols != 6 {
		t.Fatalf("slice dims %dx%d", s.Rows, s.Cols)
	}
	if len(s.Blocks) != 2 {
		t.Fatalf("blocks = %d", len(s.Blocks))
	}
	// Slicing entirely inside the first block must drop the second.
	s2 := ref.slice(0, 4, 0, 10)
	if len(s2.Blocks) != 1 || s2.Blocks[0].Path != "a" {
		t.Fatalf("slice kept %v", s2.Blocks)
	}
}

func TestSliceOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	matRef{Rows: 4, Cols: 4}.slice(0, 5, 0, 4)
}

func TestSliceComposition(t *testing.T) {
	fs := dfs.New(2, 1)
	m := workload.Random(20, 74)
	ref := storeGrid(t, fs, m, 4, false)
	// slice of slice == direct slice
	s1 := ref.slice(2, 18, 1, 19).slice(3, 10, 4, 12)
	got, err := readAll(masterReader(fs), s1)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got, m.Block(5, 12, 5, 13), 0) {
		t.Fatal("composed slice differs")
	}
}

func TestBandBounds(t *testing.T) {
	// Bands must partition [0, n) with sizes differing by at most 1.
	f := func(nRaw, mRaw uint8) bool {
		n := int(nRaw)%100 + 1
		m := int(mRaw)%10 + 1
		prev := 0
		minSz, maxSz := n, 0
		for i := 0; i < m; i++ {
			lo, hi := bandBounds(n, m, i)
			if lo != prev || hi < lo {
				return false
			}
			if sz := hi - lo; sz < minSz {
				minSz = sz
			} else if sz > maxSz {
				maxSz = sz
			}
			if hi-lo > maxSz {
				maxSz = hi - lo
			}
			prev = hi
		}
		return prev == n && maxSz-minSz <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReadRegionIntoPlacesAndTransposes: a region decoded into an offset
// window of a larger destination, in either orientation, from files stored
// in either orientation (and from a mix of both), equals the region — and
// touches nothing outside its window.
func TestReadRegionIntoPlacesAndTransposes(t *testing.T) {
	m := workload.Random(19, 75)
	for _, stored := range []string{"normal", "transposed", "mixed"} {
		fs := dfs.New(3, 1)
		ref := storeGrid(t, fs, m, 3, stored == "transposed")
		if stored == "mixed" {
			for i := range ref.Blocks {
				if i%2 == 0 {
					continue
				}
				b := &ref.Blocks[i]
				if err := fs.WriteMatrix(b.Path, m.Block(b.R0, b.R1, b.C0, b.C1).Transpose()); err != nil {
					t.Fatal(err)
				}
				b.Transposed = true
			}
		}
		rd := masterReader(fs)
		for _, reg := range [][4]int{{0, 19, 0, 19}, {4, 15, 2, 17}, {7, 8, 0, 19}, {3, 3, 5, 9}} {
			r0, r1, c0, c1 := reg[0], reg[1], reg[2], reg[3]
			want := m.Block(r0, r1, c0, c1)
			for _, transpose := range []bool{false, true} {
				if transpose {
					want = want.Transpose()
				}
				dst := matrix.New(25, 24)
				dst.Fill(-7)
				if err := readRegionInto(rd, ref, r0, r1, c0, c1, dst, 3, 2, transpose); err != nil {
					t.Fatalf("%s %v transpose=%v: %v", stored, reg, transpose, err)
				}
				if !matrix.Equal(dst.Block(3, 3+want.Rows, 2, 2+want.Cols), want, 0) {
					t.Fatalf("%s %v transpose=%v: region differs", stored, reg, transpose)
				}
				for i := 0; i < dst.Rows; i++ {
					for j := 0; j < dst.Cols; j++ {
						in := i >= 3 && i < 3+want.Rows && j >= 2 && j < 2+want.Cols
						if !in && dst.At(i, j) != -7 {
							t.Fatalf("%s %v transpose=%v: wrote outside the window at (%d,%d)", stored, reg, transpose, i, j)
						}
					}
				}
			}
		}
		got, err := readRegionTransposed(rd, ref, 2, 17, 4, 15)
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(got, m.Block(4, 15, 2, 17).Transpose(), 0) {
			t.Fatalf("%s: readRegionTransposed differs", stored)
		}
	}
}

// TestRegionReadChargedAsWholeFile: decoding a clipped region still
// accounts one read of the whole file (HDFS block semantics).
func TestRegionReadChargedAsWholeFile(t *testing.T) {
	fs := dfs.New(2, 1)
	m := workload.Random(12, 76)
	if err := fs.WriteMatrix("whole", m); err != nil {
		t.Fatal(err)
	}
	ref := matRef{Rows: 12, Cols: 12, Blocks: []blockFile{{Path: "whole", R0: 0, R1: 12, C0: 0, C1: 12}}}
	fs.ResetStats()
	if _, err := readRegion(nodeReader{fs: fs, node: 1}, ref, 5, 6, 5, 6); err != nil {
		t.Fatal(err)
	}
	if st := fs.Stats(); st.ReadOps != 1 || st.BytesRead != matrix.BinarySize(12, 12) {
		t.Fatalf("one-element region charged %d ops, %d bytes", st.ReadOps, st.BytesRead)
	}
}
