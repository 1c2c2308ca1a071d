package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
	"repro/internal/workload"
)

func TestWriteReadRoundTrip(t *testing.T) {
	fs := New(4, 2)
	fs.Write("Root/a.txt", []byte("hello"))
	got, err := fs.Read("Root/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("Read = %q", got)
	}
}

func TestReadNotFound(t *testing.T) {
	fs := New(1, 1)
	if _, err := fs.Read("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestCleanPaths(t *testing.T) {
	if got := clean("/Root//A1/./a.txt/"); got != "Root/A1/a.txt" {
		t.Fatalf("clean = %q", got)
	}
	fs := New(1, 1)
	fs.Write("/Root//x", []byte("v"))
	if !fs.Exists("Root/x") {
		t.Fatal("path normalization failed")
	}
}

func TestOverwriteKeepsOneFile(t *testing.T) {
	fs := New(2, 1)
	fs.Write("f", []byte("one"))
	fs.Write("f", []byte("two"))
	if fs.FileCount() != 1 {
		t.Fatalf("FileCount = %d", fs.FileCount())
	}
	if wc, _ := fs.WriteCount("f"); wc != 2 {
		t.Fatalf("WriteCount = %d", wc)
	}
	data, _ := fs.Read("f")
	if string(data) != "two" {
		t.Fatalf("contents = %q", data)
	}
}

func TestReplicationAccounting(t *testing.T) {
	fs := New(5, 3)
	payload := make([]byte, 1000)
	fs.Write("big", payload)
	st := fs.Stats()
	if st.BytesWritten != 1000 {
		t.Fatalf("BytesWritten = %d", st.BytesWritten)
	}
	if st.BytesReplicated != 3000 {
		t.Fatalf("BytesReplicated = %d", st.BytesReplicated)
	}
	// Two replica copies cross the network.
	if st.BytesTransferred != 2000 {
		t.Fatalf("BytesTransferred = %d", st.BytesTransferred)
	}
	reps, err := fs.Replicas("big")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("replicas = %v", reps)
	}
}

func TestReplicationCappedAtNodes(t *testing.T) {
	fs := New(2, 3)
	fs.Write("f", []byte("xy"))
	reps, _ := fs.Replicas("f")
	if len(reps) != 2 {
		t.Fatalf("replicas = %v, want 2 (capped)", reps)
	}
}

func TestLocalVsRemoteRead(t *testing.T) {
	fs := New(4, 1)
	fs.Write("f", make([]byte, 100))
	reps, _ := fs.Replicas("f")
	local := reps[0]
	remote := (local + 1) % 4

	fs.ResetStats()
	if _, err := fs.ReadFrom("f", local); err != nil {
		t.Fatal(err)
	}
	if tr := fs.Stats().BytesTransferred; tr != 0 {
		t.Fatalf("local read transferred %d bytes", tr)
	}
	if _, err := fs.ReadFrom("f", remote); err != nil {
		t.Fatal(err)
	}
	if tr := fs.Stats().BytesTransferred; tr != 100 {
		t.Fatalf("remote read transferred %d bytes", tr)
	}
}

func TestListAndDeleteTree(t *testing.T) {
	fs := New(1, 1)
	for _, p := range []string{"Root/A1/a", "Root/A1/b", "Root/A2/c", "Other/d"} {
		fs.Write(p, []byte("x"))
	}
	got := fs.List("Root/A1")
	if len(got) != 2 || got[0] != "Root/A1/a" || got[1] != "Root/A1/b" {
		t.Fatalf("List = %v", got)
	}
	if all := fs.List(""); len(all) != 4 {
		t.Fatalf("List(all) = %v", all)
	}
	if n := fs.DeleteTree("Root"); n != 3 {
		t.Fatalf("DeleteTree removed %d", n)
	}
	if fs.FileCount() != 1 {
		t.Fatalf("FileCount = %d", fs.FileCount())
	}
}

func TestSize(t *testing.T) {
	fs := New(1, 1)
	fs.Write("f", make([]byte, 321))
	sz, err := fs.Size("f")
	if err != nil || sz != 321 {
		t.Fatalf("Size = %d, %v", sz, err)
	}
	if _, err := fs.Size("g"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentWritersDistinctFiles(t *testing.T) {
	// The paper's layout has every worker write its own file; the FS must
	// be safe and lose nothing under that pattern.
	fs := New(8, 2)
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				fs.Write(fmt.Sprintf("L2/L.%d.%d", w, i), []byte{byte(w), byte(i)})
			}
		}(w)
	}
	wg.Wait()
	if fs.FileCount() != 32*20 {
		t.Fatalf("FileCount = %d", fs.FileCount())
	}
	for w := 0; w < 32; w++ {
		data, err := fs.Read(fmt.Sprintf("L2/L.%d.19", w))
		if err != nil || data[0] != byte(w) {
			t.Fatalf("worker %d file corrupted: %v %v", w, data, err)
		}
	}
}

func TestMatrixRoundTrip(t *testing.T) {
	fs := New(4, 3)
	m := workload.Random(17, 55)
	if err := fs.WriteMatrix("Root/A1/A.0", m); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadMatrix("Root/A1/A.0")
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got, m, 0) {
		t.Fatal("matrix round-trip not exact")
	}
	got2, err := fs.ReadMatrixFrom("Root/A1/A.0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got2, m, 0) {
		t.Fatal("ReadMatrixFrom mismatch")
	}
}

func TestMatrixTextRoundTrip(t *testing.T) {
	fs := New(1, 1)
	m := workload.Random(9, 56)
	if err := fs.WriteMatrixText("a.txt", m); err != nil {
		t.Fatal(err)
	}
	data, err := fs.Read("a.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := matrix.ReadText(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got, m, 0) {
		t.Fatal("text matrix round-trip not exact")
	}
}

func TestReadMatrixCorrupt(t *testing.T) {
	fs := New(1, 1)
	fs.Write("bad", []byte("not a matrix"))
	if _, err := fs.ReadMatrix("bad"); err == nil {
		t.Fatal("corrupt matrix accepted")
	}
}

func TestResetStats(t *testing.T) {
	fs := New(2, 2)
	fs.Write("f", []byte("abc"))
	fs.ResetStats()
	if st := fs.Stats(); st != (Stats{}) {
		t.Fatalf("stats not reset: %+v", st)
	}
	if !fs.Exists("f") {
		t.Fatal("ResetStats must keep files")
	}
}

// Property: bytes written/read accounting is exact for arbitrary payloads.
func TestQuickByteAccounting(t *testing.T) {
	f := func(sizes []uint16) bool {
		fs := New(3, 2)
		var total int64
		for i, s := range sizes {
			n := int(s % 4096)
			fs.Write(fmt.Sprintf("f%d", i), make([]byte, n))
			total += int64(n)
		}
		st := fs.Stats()
		if st.BytesWritten != total || st.BytesReplicated != 2*total {
			return false
		}
		for i, s := range sizes {
			if _, err := fs.Read(fmt.Sprintf("f%d", i)); err != nil {
				return false
			}
			_ = s
		}
		return fs.Stats().BytesRead == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
