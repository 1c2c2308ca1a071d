package dfs

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/matrix"
)

func TestViewAccountsLikeReadFrom(t *testing.T) {
	payload := bytes.Repeat([]byte("block"), 50)
	stats := func(read func(fs *FS) ([]byte, error)) Stats {
		fs := New(4, 2)
		fs.WriteFrom("f", payload, 0, []int{0, 1})
		if err := fs.Corrupt("f", 0); err != nil {
			t.Fatal(err)
		}
		fs.ResetStats()
		for i := 0; i < 3; i++ {
			got, err := read(fs)
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("read %d: %v", i, err)
			}
		}
		return fs.Stats()
	}
	viewed := stats(func(fs *FS) ([]byte, error) { return fs.View("f", 3) })
	copied := stats(func(fs *FS) ([]byte, error) { return fs.ReadFrom("f", 3) })
	if viewed != copied {
		t.Fatalf("View accounted %+v, ReadFrom %+v", viewed, copied)
	}
	if viewed.ReadOps != 3 || viewed.CorruptionsHealed != 1 || viewed.BytesTransferred == 0 {
		t.Fatalf("unexpected accounting %+v", viewed)
	}
}

// TestViewIsASnapshotUnderConcurrentMutation runs region decodes out of
// views of one file while it is rewritten, corrupted and healed, and while
// its replica holders die and are re-replicated. A view must stay one
// consistent version for as long as its reader holds it: replica bytes are
// never modified in place. Run under -race.
func TestViewIsASnapshotUnderConcurrentMutation(t *testing.T) {
	const n = 24
	fs := New(4, 3)
	version := func(v float64) *matrix.Dense {
		m := matrix.New(n, n)
		m.Fill(v)
		return m
	}
	if err := fs.WriteMatrix("m", version(0)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(node int) {
			defer readers.Done()
			// Exactly the region's shape, so every element is overwritten.
			transpose := node%2 == 1
			dst := matrix.New(n-3, n-1)
			if transpose {
				dst = matrix.New(n-1, n-3)
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				data, err := fs.View("m", node)
				if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrNoReplica) {
					continue // every live copy was hit before healing ran; the next write restores it
				}
				if err != nil {
					t.Error(err)
					return
				}
				if err := matrix.DecodeBinaryRegion(data, 2, n-1, 1, n, dst, 0, 0, transpose); err != nil {
					t.Error(err)
					return
				}
				for _, v := range dst.Data {
					if v != dst.Data[0] {
						t.Errorf("torn view: saw versions %v and %v in one decode", dst.Data[0], v)
						return
					}
				}
			}
		}(r)
	}
	writers.Add(3)
	go func() {
		defer writers.Done()
		for v := 1; v <= 200; v++ {
			if err := fs.WriteMatrix("m", version(float64(v))); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < 200; i++ {
			_ = fs.Corrupt("m", 0) // may find no replica mid-kill
			_, _ = fs.Read("m")    // the healing read
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < 200; i++ {
			node := i % 4
			if err := fs.KillNode(node); err != nil {
				t.Error(err)
				return
			}
			fs.ReReplicate()
			if err := fs.RestartNode(node); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writers.Wait()
	close(done)
	readers.Wait()
	if err := fs.CheckPlacement(); err != nil {
		t.Fatal(err)
	}
}
