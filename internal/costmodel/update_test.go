package costmodel

import "testing"

func TestChooseUpdatePrefersUpdateAtLowRank(t *testing.T) {
	c := ServingCluster(8)
	for _, k := range []int{1, 4, 8, 32} {
		ch := ChooseUpdate(c, 256, k, 64, 0)
		if !ch.Incremental() {
			t.Fatalf("n=256 k=%d: chose %s (%s), want an update path", k, ch.Strategy, ch.Reason)
		}
		if ch.Predicted[ch.Strategy] > ch.Predicted[UpdateFull] {
			t.Fatalf("n=256 k=%d: chosen path predicted slower than full", k)
		}
	}
}

func TestChooseUpdateRefusesHighRank(t *testing.T) {
	c := ServingCluster(8)
	for _, tc := range []struct{ n, k int }{{256, 65}, {64, 20}, {16, 8}, {100, 0}} {
		if ch := ChooseUpdate(c, tc.n, tc.k, 64, 0); ch.Incremental() {
			t.Fatalf("n=%d k=%d: chose %s, want full (rank beyond n/%d)",
				tc.n, tc.k, ch.Strategy, MaxUpdateFraction)
		}
	}
}

// TestChooseUpdateGrid pins the planner over a serving grid (8 nodes,
// nb=64). parent holds the choice the three-way model made before the
// distributed update was deleted, one letter per queue depth 0, 8 and
// 512 (s sequential, f full, d distributed); want holds the choice now.
// Every s or f cell must keep its letter; a d cell takes whichever of
// the remaining two the model ranks first, recorded from the same
// predictions, which for every d cell of this grid is sequential.
func TestChooseUpdateGrid(t *testing.T) {
	c := ServingCluster(8)
	queues := []int{0, 8, 512}
	letter := map[UpdateStrategy]byte{UpdateSequential: 's', UpdateFull: 'f'}
	cells := []struct {
		n, k         int
		parent, want string
	}{
		{64, 1, "sss", "sss"}, {64, 8, "sss", "sss"},
		{256, 1, "sss", "sss"}, {256, 8, "sss", "sss"}, {256, 32, "sss", "sss"}, {256, 64, "sss", "sss"},
		{512, 1, "sss", "sss"}, {512, 8, "sss", "sss"}, {512, 32, "sss", "sss"}, {512, 64, "sss", "sss"},
		{1024, 1, "sss", "sss"}, {1024, 8, "sss", "sss"}, {1024, 32, "dss", "sss"}, {1024, 64, "dds", "sss"},
		{2048, 1, "sss", "sss"}, {2048, 8, "dss", "sss"}, {2048, 32, "dds", "sss"}, {2048, 64, "dds", "sss"},
	}
	for _, cell := range cells {
		for i, q := range queues {
			ch := ChooseUpdate(c, cell.n, cell.k, 64, q)
			if got := letter[ch.Strategy]; got != cell.want[i] {
				t.Errorf("n=%d k=%d queue=%d: chose %s (%s), want %c (parent %c)",
					cell.n, cell.k, q, ch.Strategy, ch.Reason, cell.want[i], cell.parent[i])
			}
			if p := ch.Predicted; len(p) != 2 || p[ch.Strategy] > p[UpdateSequential] || p[ch.Strategy] > p[UpdateFull] {
				t.Errorf("n=%d k=%d queue=%d: %s is not the cheaper of %v", cell.n, cell.k, q, ch.Strategy, p)
			}
		}
	}
}

func TestChooseUpdateLoadShiftsCrossover(t *testing.T) {
	c := ServingCluster(8)
	// At k = n/4 on an idle cluster the pipeline's parallel flops beat
	// the update's master flops (the parent model sent this cell to the
	// distributed update; full is the better of the two left).
	const n, k, nb = 2048, 512, 64
	idle := ChooseUpdate(c, n, k, nb, 0)
	if idle.Strategy != UpdateFull {
		t.Fatalf("idle cluster: chose %s (%s), want full", idle.Strategy, idle.Reason)
	}
	// A deep admission queue inflates the cluster-hosted pipeline; the
	// master-local update must win.
	loaded := ChooseUpdate(c, n, k, nb, 512)
	if loaded.Strategy != UpdateSequential {
		t.Fatalf("loaded cluster: chose %s (%s), want sequential", loaded.Strategy, loaded.Reason)
	}
	if loaded.Predicted[UpdateFull] <= idle.Predicted[UpdateFull] {
		t.Fatal("load did not inflate the full-pipeline prediction")
	}
	if loaded.Predicted[UpdateSequential] != idle.Predicted[UpdateSequential] {
		t.Fatal("load moved the master-local update's prediction")
	}
}

func TestChooseUpdateDeterministic(t *testing.T) {
	c := ServingCluster(4)
	a := ChooseUpdate(c, 512, 16, 64, 3)
	b := ChooseUpdate(c, 512, 16, 64, 3)
	if a.Strategy != b.Strategy || a.Reason != b.Reason {
		t.Fatalf("same inputs chose %s vs %s", a.Strategy, b.Strategy)
	}
}
