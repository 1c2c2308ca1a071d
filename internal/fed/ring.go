package fed

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count per shard. 64 points per shard
// keeps the maximum/minimum ownership skew of an 8-shard ring within a
// few tens of percent, which the ring tests bound explicitly.
const DefaultVNodes = 64

// Ring is a consistent-hash ring mapping request digests to shard IDs.
// Each shard contributes vnodes points hashed from its identity; a key is
// owned by the first point at or clockwise of the key's hash. Adding or
// removing one shard therefore remaps only the keys on the arcs its
// points owned (~1/N of the space) instead of reshuffling everything —
// the property that keeps shard-local caches hot across fleet resizes.
//
// A Ring is built once and then read concurrently; Add and Remove are not
// safe to interleave with Owner.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash
	shards map[int]bool
}

type ringPoint struct {
	hash  uint64
	shard int
}

// newRing builds an empty ring with the given virtual-node count per
// shard (DefaultVNodes when <= 0).
func newRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, shards: make(map[int]bool)}
}

// VNodes returns the per-shard virtual-node count.
func (r *Ring) VNodes() int { return r.vnodes }

// Add inserts a shard's virtual nodes; adding a present shard is a no-op.
func (r *Ring) Add(shard int) {
	if r.shards[shard] {
		return
	}
	r.shards[shard] = true
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{hash: pointHash(shard, v), shard: shard})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a shard's virtual nodes; absent shards are a no-op.
func (r *Ring) Remove(shard int) {
	if !r.shards[shard] {
		return
	}
	delete(r.shards, shard)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != shard {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Owner returns the shard owning key: the first ring point at or
// clockwise of the key's hash, wrapping at the top of the space. It
// panics on an empty ring — a fleet always has at least one shard.
func (r *Ring) Owner(key string) int {
	if len(r.points) == 0 {
		panic("fed: Owner on empty ring")
	}
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// Shards returns the member shard IDs in ascending order.
func (r *Ring) Shards() []int {
	out := make([]int, 0, len(r.shards))
	for s := range r.shards {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Ownership returns each shard's fraction of the hash space — the
// expected share of uniformly distributed keys it will own. Fractions
// sum to 1 on a non-empty ring.
func (r *Ring) Ownership() map[int]float64 {
	out := make(map[int]float64, len(r.shards))
	n := len(r.points)
	if n == 0 {
		return out
	}
	if n == 1 {
		out[r.points[0].shard] = 1
		return out
	}
	const space = float64(1<<63) * 2 // 2^64
	for i, p := range r.points {
		// The point at points[i] owns the arc from the previous point
		// (exclusive) to itself (inclusive); unsigned subtraction wraps the
		// first point's arc around the top of the space.
		arc := p.hash - r.points[(i+n-1)%n].hash
		out[p.shard] += float64(arc) / space
	}
	return out
}

// pointHash places one virtual node: a stable hash of the shard and
// vnode identity, independent of insertion order.
func pointHash(shard, vnode int) uint64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("fed/shard-%d/vnode-%d", shard, vnode)))
	return binary.BigEndian.Uint64(sum[:8])
}

// keyHash maps a request digest onto the ring. The digest is already a
// uniform sha256 hex string, but it is re-hashed so ring placement does
// not depend on the digest's own encoding.
func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}
