package incr

import (
	"fmt"
	"testing"

	"repro/internal/workload"
)

func TestSketchDiffRowsFindsPerturbation(t *testing.T) {
	base := workload.DiagonallyDominant(32, 11)
	next, rows := perturbRows(t, base, 4, 21)
	got, ok := newSketch(base).DiffRows(newSketch(next), 8)
	if !ok {
		t.Fatal("diff gave up below its limit")
	}
	want := map[int]bool{}
	for _, r := range rows {
		want[r] = true
	}
	if len(got) != len(rows) {
		t.Fatalf("found %d changed rows, want %d", len(got), len(rows))
	}
	for _, r := range got {
		if !want[r] {
			t.Fatalf("row %d reported changed but was not perturbed", r)
		}
	}
	if _, ok := newSketch(base).DiffRows(newSketch(next), 3); ok {
		t.Fatal("limit 3 must give up on a 4-row delta")
	}
}

func TestSketchShapeMismatch(t *testing.T) {
	a := newSketch(workload.DiagonallyDominant(8, 1))
	b := newSketch(workload.DiagonallyDominant(12, 1))
	if _, ok := a.DiffRows(b, 100); ok {
		t.Fatal("different shapes reported comparable")
	}
}

func TestDiffRowsExactMatchesSketch(t *testing.T) {
	base := workload.DiagonallyDominant(24, 3)
	next, rows := perturbRows(t, base, 2, 5)
	got, ok := DiffRowsExact(base, next, 4)
	if !ok || len(got) != len(rows) {
		t.Fatalf("exact diff found %v (ok=%v), want %v", got, ok, rows)
	}
	if _, ok := DiffRowsExact(base, next, 1); ok {
		t.Fatal("limit 1 must give up on a 2-row delta")
	}
	if same, ok := DiffRowsExact(base, base, 4); !ok || len(same) != 0 {
		t.Fatalf("identical matrices diff to %v", same)
	}
}

func TestBaseIndexLRUBound(t *testing.T) {
	ix := NewBaseIndex(3)
	for i := 0; i < 5; i++ {
		m := workload.DiagonallyDominant(8, int64(i))
		ix.Add(fmt.Sprintf("d%d", i), m, m)
	}
	if ix.Len() != 3 {
		t.Fatalf("index holds %d entries, want 3", ix.Len())
	}
	if _, ok := ix.Lookup("d0"); ok {
		t.Fatal("oldest entry survived past the bound")
	}
	if _, ok := ix.Lookup("d4"); !ok {
		t.Fatal("newest entry evicted")
	}
	// A re-Add refreshes recency: d2 touched, then one more insert must
	// evict d3, not d2.
	m := workload.DiagonallyDominant(8, 2)
	ix.Add("d2", m, m)
	ix.Add("d5", m, m)
	if _, ok := ix.Lookup("d2"); !ok {
		t.Fatal("refreshed entry evicted")
	}
	if _, ok := ix.Lookup("d3"); ok {
		t.Fatal("stale entry survived")
	}
}

func TestBaseIndexProbePicksNearestBase(t *testing.T) {
	ix := NewBaseIndex(8)
	far := workload.DiagonallyDominant(16, 1) // differs everywhere
	near := workload.DiagonallyDominant(16, 2)
	ix.Add("far", far, far)
	ix.Add("near", near, near)
	// Also a different shape that must be skipped.
	other := workload.DiagonallyDominant(8, 3)
	ix.Add("other", other, other)

	req, rows := perturbRows(t, near, 2, 9)
	b, cand, ok := ix.Probe(req, 4)
	if !ok {
		t.Fatal("probe found nothing")
	}
	if b.Digest != "near" {
		t.Fatalf("probe chose %q, want near", b.Digest)
	}
	if len(cand) != len(rows) {
		t.Fatalf("probe proposed %d rows, want %d", len(cand), len(rows))
	}
	// Nothing within the delta budget → no candidate.
	if _, _, ok := ix.Probe(workload.DiagonallyDominant(16, 99), 2); ok {
		t.Fatal("probe matched a base beyond the delta budget")
	}
}

func TestBaseIndexIgnoresExactDuplicate(t *testing.T) {
	ix := NewBaseIndex(4)
	m := workload.DiagonallyDominant(12, 7)
	ix.Add("m", m, m)
	if _, _, ok := ix.Probe(m.Clone(), 4); ok {
		t.Fatal("probe returned a zero-row delta; exact matches belong to the result cache")
	}
}
