// Package spark is a miniature Spark-style execution engine: resilient
// distributed datasets (RDDs) with lazy transformations, in-memory
// caching, and lineage-based fault recovery.
//
// The HPDC 2014 paper's Section 8 names this as the promising direction:
// "Spark provides parallel data structures that allow users to explicitly
// keep data in memory with fault tolerance. Therefore, we expect that
// implementing our algorithm in Spark would improve performance by
// reducing read I/O ... our technique would need minimal changes (if any)".
// Package spark implements that substrate, and invert.go expresses the
// paper's block-LU inversion on it — the intermediates (L2', U2, B, the
// triangular inverses) live in memory as RDD partitions instead of HDFS
// files, and a lost partition is recomputed from its lineage rather than
// re-read or re-run as a whole job.
//
// The model is deliberately small: an RDD has a fixed number of
// partitions, a compute function, and dependencies that are either narrow
// (partition i depends on parent partition i) or wide (partition i may
// read every parent partition). Actions force evaluation bottom-up with
// per-partition caching; evicting a cached partition (the fault-injection
// hook) makes the next action transparently recompute it and any missing
// ancestors.
package spark

import (
	"fmt"
	"sync"
)

// Record is one element of a partition. Matrix stages store *matrix.Dense
// blocks directly — Spark-style "in-memory objects", no serialization.
type Record any

// Context owns a logical cluster: a worker pool and the counters used by
// tests and reports.
type Context struct {
	workers int

	mu         sync.Mutex
	nextID     int
	computes   int
	recomputes int
	cacheHits  int
}

// NewContext creates a context with the given degree of parallelism.
func NewContext(workers int) *Context {
	if workers < 1 {
		workers = 1
	}
	return &Context{workers: workers}
}

// Recomputes returns how many computations were lineage-driven
// recomputations of previously cached partitions.
func (c *Context) Recomputes() int { c.mu.Lock(); defer c.mu.Unlock(); return c.recomputes }

// CacheHits returns how many partition reads were served from cache.
func (c *Context) CacheHits() int { c.mu.Lock(); defer c.mu.Unlock(); return c.cacheHits }

// DepKind distinguishes narrow from wide dependencies.
type DepKind int

const (
	// Narrow: partition i of the child reads partition i of the parent.
	Narrow DepKind = iota
	// Wide: any partition of the child may read every parent partition
	// (a shuffle boundary).
	Wide
)

// Dep is one dependency edge of an RDD.
type Dep struct {
	RDD  *RDD
	Kind DepKind
}

// ComputeFunc materializes partition p. deps[i] holds the records of the
// i-th dependency: for a narrow dep, exactly the matching partition's
// records; for a wide dep, all partitions' records concatenated in
// partition order.
type ComputeFunc func(p int, deps [][]Record) ([]Record, error)

// RDD is a lazily evaluated, partitioned dataset.
type RDD struct {
	ctx      *Context
	id       int
	name     string
	numParts int
	deps     []Dep
	compute  ComputeFunc

	mu      sync.Mutex
	cached  []bool
	data    [][]Record
	pinned  bool // Cache() called: keep materialized partitions
	evicted int
	// partLocks serialize evaluation per partition so concurrent actions
	// compute each partition exactly once. Lock order child -> parent over
	// an acyclic lineage graph cannot deadlock.
	partLocks []sync.Mutex
}

// newRDD wires an RDD into the context.
func (c *Context) newRDD(name string, parts int, deps []Dep, f ComputeFunc) *RDD {
	c.mu.Lock()
	id := c.nextID
	c.nextID++
	c.mu.Unlock()
	if parts < 1 {
		parts = 1
	}
	return &RDD{
		ctx: c, id: id, name: name, numParts: parts, deps: deps, compute: f,
		cached: make([]bool, parts), data: make([][]Record, parts),
		partLocks: make([]sync.Mutex, parts),
	}
}

// Parallelize distributes items over parts partitions (round-robin bands).
func (c *Context) Parallelize(name string, items []Record, parts int) *RDD {
	if parts < 1 {
		parts = 1
	}
	n := len(items)
	copied := append([]Record(nil), items...)
	return c.newRDD(name, parts, nil, func(p int, _ [][]Record) ([]Record, error) {
		lo, hi := n*p/parts, n*(p+1)/parts
		return copied[lo:hi], nil
	})
}

// Range creates an RDD of the ints [0, n) across parts partitions — the
// index-driven pattern the inversion stages use.
func (c *Context) Range(name string, n, parts int) *RDD {
	items := make([]Record, n)
	for i := range items {
		items[i] = i
	}
	return c.Parallelize(name, items, parts)
}

// Name returns the RDD's debug name.
func (r *RDD) Name() string { return r.name }

// Map applies f to every record (narrow dependency).
func (r *RDD) Map(name string, f func(Record) (Record, error)) *RDD {
	return r.ctx.newRDD(name, r.numParts, []Dep{{RDD: r, Kind: Narrow}},
		func(p int, deps [][]Record) ([]Record, error) {
			in := deps[0]
			out := make([]Record, 0, len(in))
			for _, rec := range in {
				v, err := f(rec)
				if err != nil {
					return nil, err
				}
				out = append(out, v)
			}
			return out, nil
		})
}

// MapPartitions transforms a whole partition at once (narrow dependency).
func (r *RDD) MapPartitions(name string, f func(p int, in []Record) ([]Record, error)) *RDD {
	return r.ctx.newRDD(name, r.numParts, []Dep{{RDD: r, Kind: Narrow}},
		func(p int, deps [][]Record) ([]Record, error) {
			return f(p, deps[0])
		})
}

// JoinWith builds an RDD over parts partitions whose compute may read all
// partitions of every listed parent — the general wide-dependency
// constructor the matrix stages use (a block of B reads several L2' and
// U2 partitions).
func (c *Context) JoinWith(name string, parts int, parents []*RDD, f ComputeFunc) *RDD {
	deps := make([]Dep, len(parents))
	for i, p := range parents {
		deps[i] = Dep{RDD: p, Kind: Wide}
	}
	return c.newRDD(name, parts, deps, f)
}

// Cache pins materialized partitions in memory (they are kept regardless,
// but Cache marks intent and is reported by Cached()).
func (r *RDD) Cache() *RDD {
	r.mu.Lock()
	r.pinned = true
	r.mu.Unlock()
	return r
}

// Evict drops the cached data of one partition — the fault-injection
// hook standing in for a lost executor. The next action recomputes the
// partition from its lineage.
func (r *RDD) Evict(p int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p >= 0 && p < r.numParts && r.cached[p] {
		r.cached[p] = false
		r.data[p] = nil
		r.evicted++
	}
}

// EvictAll drops every cached partition.
func (r *RDD) EvictAll() {
	for p := 0; p < r.numParts; p++ {
		r.Evict(p)
	}
}

// partition returns partition p, computing (and caching) it if necessary.
func (r *RDD) partition(p int) ([]Record, error) {
	r.partLocks[p].Lock()
	defer r.partLocks[p].Unlock()
	r.mu.Lock()
	if r.cached[p] {
		data := r.data[p]
		r.mu.Unlock()
		r.ctx.mu.Lock()
		r.ctx.cacheHits++
		r.ctx.mu.Unlock()
		return data, nil
	}
	wasEvicted := r.evicted > 0
	r.mu.Unlock()

	// Resolve dependencies outside the lock (lineage recursion).
	depData := make([][]Record, len(r.deps))
	for i, d := range r.deps {
		switch d.Kind {
		case Narrow:
			if d.RDD.numParts != r.numParts {
				return nil, fmt.Errorf("spark: narrow dep %s->%s with %d vs %d partitions",
					d.RDD.name, r.name, d.RDD.numParts, r.numParts)
			}
			recs, err := d.RDD.partition(p)
			if err != nil {
				return nil, err
			}
			depData[i] = recs
		case Wide:
			var all []Record
			for q := 0; q < d.RDD.numParts; q++ {
				recs, err := d.RDD.partition(q)
				if err != nil {
					return nil, err
				}
				all = append(all, recs...)
			}
			depData[i] = all
		}
	}

	out, err := r.compute(p, depData)
	if err != nil {
		return nil, fmt.Errorf("spark: compute %s[%d]: %w", r.name, p, err)
	}
	r.mu.Lock()
	r.cached[p] = true
	r.data[p] = out
	r.mu.Unlock()
	r.ctx.mu.Lock()
	r.ctx.computes++
	if wasEvicted {
		r.ctx.recomputes++
	}
	r.ctx.mu.Unlock()
	return out, nil
}

// Collect materializes the RDD and returns all records in partition order.
// Partitions are computed concurrently up to the context's parallelism.
func (r *RDD) Collect() ([]Record, error) {
	type result struct {
		p    int
		recs []Record
		err  error
	}
	sem := make(chan struct{}, r.ctx.workers)
	results := make([]result, r.numParts)
	var wg sync.WaitGroup
	for p := 0; p < r.numParts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			recs, err := r.partition(p)
			results[p] = result{p: p, recs: recs, err: err}
		}(p)
	}
	wg.Wait()
	var out []Record
	for _, res := range results {
		if res.err != nil {
			return nil, res.err
		}
		out = append(out, res.recs...)
	}
	return out, nil
}

// Count materializes the RDD and returns its record count.
func (r *RDD) Count() (int, error) {
	recs, err := r.Collect()
	if err != nil {
		return 0, err
	}
	return len(recs), nil
}
