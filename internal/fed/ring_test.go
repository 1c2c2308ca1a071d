package fed

import (
	"fmt"
	"math"
	"testing"
)

// testKeys fabricates n digest-like keys. Real keys are sha256 hex
// strings; any distinct strings work because Owner re-hashes them.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("digest-%d", i)
	}
	return keys
}

func TestRingDistributionBalanced(t *testing.T) {
	const shards, n = 8, 20000
	r := newRing(128)
	for s := 0; s < shards; s++ {
		r.Add(s)
	}
	counts := make(map[int]int)
	for _, k := range testKeys(n) {
		counts[r.Owner(k)]++
	}
	mean := float64(n) / shards
	for s := 0; s < shards; s++ {
		c := counts[s]
		if c == 0 {
			t.Fatalf("shard %d owns no keys", s)
		}
		if skew := float64(c) / mean; skew < 0.5 || skew > 2.0 {
			t.Fatalf("shard %d owns %d keys (mean %.0f, skew %.2fx): distribution unbalanced: %v",
				s, c, mean, skew, counts)
		}
	}
}

func TestRingOwnershipMatchesEmpiricalShare(t *testing.T) {
	const shards, n = 4, 20000
	r := newRing(128)
	for s := 0; s < shards; s++ {
		r.Add(s)
	}
	own := r.Ownership()
	var total float64
	for _, frac := range own {
		total += frac
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("ownership fractions sum to %v, want 1", total)
	}
	counts := make(map[int]int)
	for _, k := range testKeys(n) {
		counts[r.Owner(k)]++
	}
	for s := 0; s < shards; s++ {
		emp := float64(counts[s]) / n
		if math.Abs(emp-own[s]) > 0.03 {
			t.Fatalf("shard %d: empirical share %.3f vs ring fraction %.3f", s, emp, own[s])
		}
	}
}

// Adding one shard to an N-shard ring must remap only roughly 1/(N+1) of
// the keys — the consistent-hashing property that keeps the other shards'
// caches hot across a fleet resize.
func TestRingAddRemapsBoundedFraction(t *testing.T) {
	const shards, n = 8, 20000
	r := newRing(128)
	for s := 0; s < shards; s++ {
		r.Add(s)
	}
	keys := testKeys(n)
	before := make([]int, n)
	for i, k := range keys {
		before[i] = r.Owner(k)
	}
	r.Add(shards) // shard 8 joins
	moved := 0
	for i, k := range keys {
		after := r.Owner(k)
		if after != before[i] {
			moved++
			// Every remapped key must move TO the new shard, never
			// between old shards.
			if after != shards {
				t.Fatalf("key %q moved from shard %d to old shard %d", k, before[i], after)
			}
		}
	}
	ideal := float64(n) / float64(shards+1)
	if moved == 0 {
		t.Fatal("no keys moved to the new shard")
	}
	if f := float64(moved); f > 2.5*ideal {
		t.Fatalf("%d keys moved (ideal ~%.0f): full reshuffle, not consistent hashing", moved, ideal)
	}
}

// Removing a shard must remap only the keys that shard owned; everyone
// else's placement is untouched — exactly, not approximately.
func TestRingRemoveOnlyRemapsVictimKeys(t *testing.T) {
	const shards, n = 8, 20000
	r := newRing(128)
	for s := 0; s < shards; s++ {
		r.Add(s)
	}
	keys := testKeys(n)
	before := make([]int, n)
	for i, k := range keys {
		before[i] = r.Owner(k)
	}
	const victim = 3
	r.Remove(victim)
	for i, k := range keys {
		after := r.Owner(k)
		if before[i] == victim {
			if after == victim {
				t.Fatalf("key %q still owned by removed shard", k)
			}
		} else if after != before[i] {
			t.Fatalf("key %q moved from surviving shard %d to %d on unrelated removal",
				k, before[i], after)
		}
	}
}

func TestRingOwnerDeterministic(t *testing.T) {
	build := func() *Ring {
		r := newRing(64)
		// Insertion order must not matter.
		for _, s := range []int{2, 0, 3, 1} {
			r.Add(s)
		}
		return r
	}
	a, b := build(), build()
	for _, k := range testKeys(1000) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("key %q: owner differs between identical rings", k)
		}
	}
}
