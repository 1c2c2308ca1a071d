package core

import (
	"encoding/binary"
	"testing"

	"repro/internal/dfs"
	"repro/internal/matrix"
	"repro/internal/workload"
)

func TestPermRoundTrip(t *testing.T) {
	fs := dfs.New(2, 1)
	p := matrix.Perm{3, 1, 0, 2}
	if err := writePerm(fs, "p.bin", p); err != nil {
		t.Fatal(err)
	}
	got, err := readPerm(fs, "p.bin")
	if err != nil {
		t.Fatal(err)
	}
	for i := range p {
		if got[i] != p[i] {
			t.Fatalf("perm = %v, want %v", got, p)
		}
	}
}

func TestReadPermErrors(t *testing.T) {
	fs := dfs.New(1, 1)
	if _, err := readPerm(fs, "missing"); err == nil {
		t.Fatal("missing file accepted")
	}
	fs.Write("bad", []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if _, err := readPerm(fs, "bad"); err == nil {
		t.Fatal("bad magic accepted")
	}
	// A "permutation" with a repeated entry must be rejected.
	if err := writePerm(fs, "dup.bin", matrix.Perm{0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := readPerm(fs, "dup.bin"); err == nil {
		t.Fatal("invalid permutation accepted")
	}
}

func TestIndexedBlockRoundTrip(t *testing.T) {
	fs := dfs.New(2, 1)
	b := indexedBlock{
		RowIdx: []int{1, 4, 7},
		ColIdx: []int{0, 5},
		Data:   workload.RandomRect(3, 2, 81),
	}
	if err := writeIndexed(fs, "blk", b); err != nil {
		t.Fatal(err)
	}
	got, err := readIndexed(masterReader(fs), "blk")
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got.Data, b.Data, 0) {
		t.Fatal("payload differs")
	}
	for i := range b.RowIdx {
		if got.RowIdx[i] != b.RowIdx[i] {
			t.Fatalf("RowIdx = %v", got.RowIdx)
		}
	}
	for i := range b.ColIdx {
		if got.ColIdx[i] != b.ColIdx[i] {
			t.Fatalf("ColIdx = %v", got.ColIdx)
		}
	}
}

func TestIndexedBlockNilIndices(t *testing.T) {
	fs := dfs.New(1, 1)
	b := indexedBlock{Data: workload.RandomRect(4, 4, 82)}
	if err := writeIndexed(fs, "blk", b); err != nil {
		t.Fatal(err)
	}
	got, err := readIndexed(masterReader(fs), "blk")
	if err != nil {
		t.Fatal(err)
	}
	if got.RowIdx != nil || got.ColIdx != nil {
		t.Fatal("nil indices must stay nil")
	}
	if !matrix.Equal(got.Data, b.Data, 0) {
		t.Fatal("payload differs")
	}
}

func TestWriteIndexedShapeMismatch(t *testing.T) {
	fs := dfs.New(1, 1)
	b := indexedBlock{RowIdx: []int{1}, Data: matrix.New(2, 2)}
	if err := writeIndexed(fs, "x", b); err == nil {
		t.Fatal("row index mismatch accepted")
	}
	b = indexedBlock{ColIdx: []int{1, 2, 3}, Data: matrix.New(2, 2)}
	if err := writeIndexed(fs, "x", b); err == nil {
		t.Fatal("col index mismatch accepted")
	}
}

func TestReadIndexedCorrupt(t *testing.T) {
	fs := dfs.New(1, 1)
	fs.Write("junk", []byte("definitely not a block"))
	if _, err := readIndexed(masterReader(fs), "junk"); err == nil {
		t.Fatal("corrupt block accepted")
	}
	if _, err := readIndexed(masterReader(fs), "absent"); err == nil {
		t.Fatal("missing block accepted")
	}
}

// TestReadIndexedTrustsTheFileNotItsHeaders: index counts and payload
// dimensions are believed only when the bytes held can back them.
func TestReadIndexedTrustsTheFileNotItsHeaders(t *testing.T) {
	fs := dfs.New(1, 1)
	b := indexedBlock{RowIdx: []int{2, 5}, ColIdx: []int{1, 3, 4}, Data: workload.RandomRect(2, 3, 83)}
	if err := writeIndexed(fs, "good", b); err != nil {
		t.Fatal(err)
	}
	good, err := fs.Read("good")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(good)) != 12+4*5+matrix.BinarySize(2, 3) {
		t.Fatalf("encoded size %d", len(good))
	}
	mutate := func(f func(d []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	cases := map[string][]byte{
		"short header": good[:10],
		"index counts beyond the file": mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[4:], 1<<24)
			binary.LittleEndian.PutUint32(d[8:], 1<<24)
			return d
		}),
		"index count over the cap": mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[4:], 1<<24+1)
			return d
		}),
		"payload dims beyond the file": mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[12+20+4:], 1<<24)
			return d
		}),
		"truncated payload": good[:len(good)-8],
		"index/shape mismatch": mutate(func(d []byte) []byte {
			// One row index fewer: the payload then starts 4 bytes early.
			binary.LittleEndian.PutUint32(d[4:], 1)
			return d
		}),
	}
	for name, data := range cases {
		fs.Write("bad", data)
		if _, err := readIndexed(masterReader(fs), "bad"); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
