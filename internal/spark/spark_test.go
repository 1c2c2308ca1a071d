package spark

import (
	"errors"
	"testing"
)

// computes returns the number of partition computations ctx has run.
func computes(ctx *Context) int {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	return ctx.computes
}

func TestParallelizeCollect(t *testing.T) {
	ctx := NewContext(4)
	items := []Record{1, 2, 3, 4, 5, 6, 7}
	r := ctx.Parallelize("nums", items, 3)
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("collected %d", len(got))
	}
	for i, v := range got {
		if v.(int) != i+1 {
			t.Fatalf("order broken at %d: %v", i, v)
		}
	}
}

func TestMapFilter(t *testing.T) {
	ctx := NewContext(2)
	r := ctx.Range("r", 10, 4).
		Map("sq", func(rec Record) (Record, error) { n := rec.(int); return n * n, nil })
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 4, 9, 16, 25, 36, 49, 64, 81}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i].(int) != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestMapErrorPropagates(t *testing.T) {
	ctx := NewContext(2)
	boom := errors.New("boom")
	r := ctx.Range("r", 4, 2).Map("bad", func(rec Record) (Record, error) {
		if rec.(int) == 2 {
			return nil, boom
		}
		return rec, nil
	})
	if _, err := r.Collect(); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestCachingAvoidsRecompute(t *testing.T) {
	ctx := NewContext(2)
	r := ctx.Range("r", 8, 4).Map("id", func(rec Record) (Record, error) { return rec, nil })
	r.Cache()
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	before := computes(ctx)
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
	if computes(ctx) != before {
		t.Fatalf("second collect recomputed: %d -> %d", before, computes(ctx))
	}
	if ctx.CacheHits() == 0 {
		t.Fatal("no cache hits recorded")
	}
}

func TestLineageRecoveryAfterEviction(t *testing.T) {
	ctx := NewContext(2)
	base := ctx.Range("base", 12, 3)
	derived := base.Map("x10", func(rec Record) (Record, error) { return rec.(int) * 10, nil })
	first, err := derived.Collect()
	if err != nil {
		t.Fatal(err)
	}
	// Lose two partitions and the whole base RDD.
	derived.Evict(0)
	derived.Evict(2)
	base.EvictAll()
	again, err := derived.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(first) {
		t.Fatal("length changed after recovery")
	}
	for i := range first {
		if first[i].(int) != again[i].(int) {
			t.Fatalf("value %d changed after recovery", i)
		}
	}
	if ctx.Recomputes() == 0 {
		t.Fatal("recovery did not register recomputes")
	}
}

func TestNarrowDepPartitionMismatch(t *testing.T) {
	ctx := NewContext(1)
	parent := ctx.Range("p", 4, 2)
	// Hand-build a narrow dep with the wrong partition count.
	bad := ctx.newRDD("bad", 3, []Dep{{RDD: parent, Kind: Narrow}},
		func(p int, deps [][]Record) ([]Record, error) { return deps[0], nil })
	if _, err := bad.Collect(); err == nil {
		t.Fatal("partition mismatch accepted")
	}
}

func TestCount(t *testing.T) {
	ctx := NewContext(2)
	n, err := ctx.Range("r", 17, 5).Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 17 {
		t.Fatalf("count = %d", n)
	}
}

func TestWideDepSeesAllPartitions(t *testing.T) {
	ctx := NewContext(2)
	base := ctx.Range("base", 10, 5)
	total := ctx.JoinWith("total", 1, []*RDD{base},
		func(p int, deps [][]Record) ([]Record, error) {
			s := 0
			for _, rec := range deps[0] {
				s += rec.(int)
			}
			return []Record{s}, nil
		})
	got, err := total.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if got[0].(int) != 45 {
		t.Fatalf("sum = %v", got[0])
	}
}

func TestEvictUncachedIsNoop(t *testing.T) {
	ctx := NewContext(1)
	r := ctx.Range("r", 4, 2)
	r.Evict(0) // nothing cached yet
	r.Evict(99)
	if _, err := r.Collect(); err != nil {
		t.Fatal(err)
	}
}
