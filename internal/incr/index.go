package incr

import (
	"container/list"
	"sync"

	"repro/internal/matrix"
)

// Base is one entry in the base-matrix index: a recently inverted
// matrix, its inverse, and the per-row fingerprint sketch used to
// probe for low-rank deltas. A and Inv are shared with the serving
// cache and with waiters: read-only.
type Base struct {
	// Digest is the serving layer's cache key for the base request —
	// the same string a client echoes back in X-Base-Digest to make a
	// mutated request probe (and route to) this base directly.
	Digest string
	A      *matrix.Dense
	Inv    *matrix.Dense
	Sketch *Sketch
}

// BaseIndex is a bounded, mutex-guarded LRU of Base entries keyed by
// digest. It is the delta detector's working set: Add on every
// successful full inversion, Lookup when the client names a base,
// Probe to scan for the nearest base otherwise. All methods are safe
// for concurrent use and hold the lock only across in-memory work.
type BaseIndex struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element
}

// NewBaseIndex builds an index retaining at most max entries (<=0
// selects DefaultMaxBases).
func NewBaseIndex(max int) *BaseIndex {
	if max <= 0 {
		max = DefaultMaxBases
	}
	return &BaseIndex{max: max, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// Len reports current occupancy.
func (ix *BaseIndex) Len() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.ll.Len()
}

// Add records a freshly inverted base, evicting the least recently
// used entry beyond the bound. Re-adding an existing digest refreshes
// its recency.
func (ix *BaseIndex) Add(digest string, a, inv *matrix.Dense) {
	if a == nil || inv == nil || !a.IsSquare() {
		return
	}
	sk := newSketch(a) // sketch before taking the lock: O(n²) hashing must not serialize readers
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if el, ok := ix.byKey[digest]; ok {
		el.Value = &Base{Digest: digest, A: a, Inv: inv, Sketch: sk}
		ix.ll.MoveToFront(el)
		return
	}
	ix.byKey[digest] = ix.ll.PushFront(&Base{Digest: digest, A: a, Inv: inv, Sketch: sk})
	for ix.ll.Len() > ix.max {
		el := ix.ll.Back()
		ix.ll.Remove(el)
		delete(ix.byKey, el.Value.(*Base).Digest)
	}
}

// Lookup returns the base with the given digest, refreshing its
// recency.
func (ix *BaseIndex) Lookup(digest string) (*Base, bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	el, ok := ix.byKey[digest]
	if !ok {
		return nil, false
	}
	ix.ll.MoveToFront(el)
	return el.Value.(*Base), true
}

// Probe scans the index for the base closest to a in changed rows,
// considering only same-shape entries and deltas of at most kmax rows.
// It returns the winning base and its candidate changed rows (by
// sketch; the caller re-verifies with DiffRowsExact). The scan is
// deterministic: entries are visited in recency order and ties in
// delta size go to the more recent base.
func (ix *BaseIndex) Probe(a *matrix.Dense, kmax int) (*Base, []int, bool) {
	sk := newSketch(a)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var best *Base
	var bestRows []int
	for el := ix.ll.Front(); el != nil; el = el.Next() {
		b := el.Value.(*Base)
		if b.Sketch.Rows != sk.Rows || b.Sketch.Cols != sk.Cols {
			continue
		}
		limit := kmax
		if best != nil && len(bestRows)-1 < limit {
			// Only a strictly smaller delta can displace the current
			// (more recent) winner.
			limit = len(bestRows) - 1
		}
		rows, ok := b.Sketch.DiffRows(sk, limit)
		if !ok || len(rows) == 0 {
			// Zero differing rows means a byte-identical matrix, which
			// the exact-match cache already owns; skip it here.
			continue
		}
		best, bestRows = b, rows
	}
	if best == nil {
		return nil, nil, false
	}
	return best, bestRows, true
}
