// Package fed is the federated serving tier: it runs N independent
// cluster shards — each a full serve.Server with its own simulated DFS,
// slot scheduler, singleflight table, and LRU result cache — behind a
// consistent-hash ring keyed by the request digest. Identical and
// duplicate matrices therefore always land on the same shard, so the
// dedup and cache wins the single-server layer earns stay shard-local
// instead of being diluted across the fleet.
//
// On top of placement the router owns fleet-level admission:
//
//   - tenancy: each request carries a tenant ID; the tenant table maps it
//     to a QoS class (a fair-share Priority the request cannot exceed)
//     and an in-flight quota enforced before any shard is touched;
//   - overflow spill: when a request's home shard reports a saturated
//     admission queue (or is unhealthy — draining, or all datanodes
//     dead under chaos), the router forfeits cache locality and sends
//     the request to the least-loaded live shard instead of returning
//     429. Spills are counted per tenant and fleet-wide (fed.spill).
//
// The paper scales one inversion across one cluster; this layer is the
// step the ROADMAP calls the "millions of users" architecture — routing
// each request to the right cluster so the fleet behaves like one big
// cache-coherent service.
package fed

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// ErrNoShard reports that no live shard could take the request: the home
// shard is down and every other shard is unhealthy too (HTTP 503).
var ErrNoShard = errors.New("fed: no live shard available")

// Routing policies.
const (
	// RouteDigest places each request on its digest's home shard
	// (consistent hashing) — the default, and the policy that keeps
	// caches hot.
	RouteDigest = "digest"
	// RouteRandom scatters requests uniformly — the locality-free
	// baseline the EXPERIMENTS fleet runs compare against.
	RouteRandom = "random"
)

// Config sizes the fleet.
type Config struct {
	// Shards is the number of independent cluster shards; default 1.
	Shards int
	// VNodes is the consistent-hash virtual-node count per shard;
	// default DefaultVNodes.
	VNodes int
	// Route selects the placement policy: RouteDigest (default) or
	// RouteRandom.
	Route string
	// Seed drives RouteRandom placement; fixed seed, fixed scatter.
	Seed int64
	// Tenants is the admission table (see ParseTenants); nil admits every
	// tenant unlimited at priority 0.
	Tenants map[string]TenantSpec
	// Shard is the per-shard serve configuration template. Its Metrics
	// field is ignored: every shard gets its own registry so /statz can
	// tell them apart. Its Chaos plan, when set, is applied only to shard
	// ChaosShard — the fleet-level failure drill is "one shard degrades,
	// the rest absorb".
	Shard serve.Config
	// ChaosShard picks which shard runs under Shard.Chaos; default 0.
	ChaosShard int
	// Metrics receives the fleet-level fed.* counters; one is created
	// when nil.
	Metrics *obs.Registry
}

// Request is one federated inversion: the serving request plus the
// tenant it bills to.
type Request struct {
	serve.Request
	Tenant string
}

// Result is a completed federated inversion.
type Result struct {
	*serve.Result
	// Shard is the shard that served the request; Home is the shard the
	// ring assigned. They differ exactly when the request spilled.
	Shard int `json:"shard"`
	Home  int `json:"home"`
	// Route tells how placement went: "home" (digest-owned shard),
	// "spill" (home saturated or down, rerouted to the least-loaded live
	// shard), or "random" (RouteRandom policy).
	Route string `json:"route"`
}

// Fleet routes requests across the shard set.
type Fleet struct {
	cfg     Config
	shards  []*serve.Server
	ring    *Ring
	tenants *tenants
	met     *obs.Registry
	base    core.Options

	mu  sync.Mutex // guards rng
	rng *rand.Rand
}

// New builds the fleet and starts every shard. Callers must Drain (or
// Close) it when done.
func New(cfg Config) (*Fleet, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	switch cfg.Route {
	case "":
		cfg.Route = RouteDigest
	case RouteDigest, RouteRandom:
	default:
		return nil, fmt.Errorf("fed: unknown route policy %q", cfg.Route)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	f := &Fleet{
		cfg:     cfg,
		ring:    newRing(cfg.VNodes),
		tenants: newTenants(cfg.Tenants),
		met:     cfg.Metrics,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	chaosPlan := cfg.Shard.Chaos
	for i := 0; i < cfg.Shards; i++ {
		sc := cfg.Shard
		sc.Metrics = nil // one registry per shard
		sc.Chaos = nil
		if chaosPlan != nil && i == cfg.ChaosShard {
			sc.Chaos = chaosPlan
		}
		s, err := serve.New(sc)
		if err != nil {
			for _, prev := range f.shards {
				prev.Close()
			}
			return nil, err
		}
		f.shards = append(f.shards, s)
		f.ring.Add(i)
	}
	f.base = f.shards[0].BaseOptions()
	return f, nil
}

// NumShards returns the fleet size.
func (f *Fleet) NumShards() int { return len(f.shards) }

// Shard returns shard i's server (tests and /statz aggregation).
func (f *Fleet) Shard(i int) *serve.Server { return f.shards[i] }

// Ring returns the placement ring.
func (f *Fleet) Ring() *Ring { return f.ring }

// Metrics returns the fleet-level registry (fed.* counters only; each
// shard keeps its own).
func (f *Fleet) Metrics() *obs.Registry { return f.met }

// Home computes the digest and home shard the ring assigns to a request,
// without admitting it — the same digest serve.Server.Do will use for
// dedup and caching on that shard. A request carrying an X-Base-Digest
// hint is placed by that base digest instead of its own: a mutated
// matrix hashes nowhere near its base, so without the hint the delta
// probe would land on a shard whose index has never seen the base.
// Routing by the base digest keeps mutation chains shard-local while
// dedup and caching still use the request's own digest.
func (f *Fleet) Home(req Request) (digest string, shard int) {
	digest = serve.KeyFor(req.Request, f.base)
	key := digest
	if req.BaseDigest != "" {
		key = req.BaseDigest
	}
	return digest, f.ring.Owner(key)
}

// Do routes one request through the federation lifecycle: tenant
// admission, ring placement, saturation probe with overflow spill, and
// execution on the chosen shard. It is safe for concurrent use.
func (f *Fleet) Do(ctx context.Context, req Request) (*Result, error) {
	f.met.Counter("fed.requests").Add(1)
	prio, release, err := f.tenants.acquire(req.Tenant, req.Priority)
	if err != nil {
		f.met.Counter("fed.tenant_rejected").Add(1)
		return nil, err
	}
	req.Priority = prio

	_, home := f.Home(req)
	if req.BaseDigest != "" {
		f.met.Counter("fed.base_routed").Add(1)
	}
	target, route := home, "home"
	if f.cfg.Route == RouteRandom {
		f.mu.Lock()
		target = f.rng.Intn(len(f.shards))
		f.mu.Unlock()
		route = "random"
	} else if !f.healthyAndOpen(home) {
		if alt, ok := f.leastLoaded(home); ok {
			target, route = alt, "spill"
		} else if !f.shards[home].Healthy() {
			// Home is down and there is nowhere live to go.
			release(false)
			f.met.Counter("fed.no_shard").Add(1)
			return nil, ErrNoShard
		}
		// Every alternative is saturated too: stay home and let its
		// admission queue arbitrate (a 429 surfaces honestly).
	}

	res, err := f.shards[target].Do(ctx, req.Request)
	if errors.Is(err, serve.ErrOverloaded) && route == "home" {
		// Lost the race for home's last queue slot; spill late.
		if alt, ok := f.leastLoaded(target); ok {
			target, route = alt, "spill"
			res, err = f.shards[target].Do(ctx, req.Request)
		}
	}
	if route == "spill" {
		f.met.Counter("fed.spill").Add(1)
		f.tenants.noteSpill(req.Tenant)
	} else {
		//mrlint:allow obsnames -- route is the closed enum home/random/spill
		f.met.Counter("fed." + route).Add(1)
	}
	//mrlint:allow obsnames -- one counter per shard, fixed at fleet construction; dashboards enumerate shards deliberately
	f.met.Counter(fmt.Sprintf("fed.shard.%d.requests", target)).Add(1)
	release(err == nil)
	if err != nil {
		f.met.Counter("fed.failed").Add(1)
		return nil, err
	}
	return &Result{Result: res, Shard: target, Home: home, Route: route}, nil
}

// healthyAndOpen reports whether shard i can take one more request
// without rejecting: live, not draining, and admission queue not full.
func (f *Fleet) healthyAndOpen(i int) bool {
	if !f.shards[i].Healthy() {
		return false
	}
	depth, capacity := f.shards[i].QueueLoad()
	return depth < capacity
}

// leastLoaded picks the spill target: the healthy, unsaturated shard
// (excluding exclude) with the shallowest admission queue, ties to the
// lowest index. ok is false when no such shard exists.
func (f *Fleet) leastLoaded(exclude int) (int, bool) {
	best, bestDepth, ok := 0, 0, false
	for i := range f.shards {
		if i == exclude || !f.shards[i].Healthy() {
			continue
		}
		depth, capacity := f.shards[i].QueueLoad()
		if depth >= capacity {
			continue
		}
		if !ok || depth < bestDepth {
			best, bestDepth, ok = i, depth, true
		}
	}
	return best, ok
}

// Drain stops admission on every shard and waits (bounded by ctx) for
// in-flight work to finish, draining shards concurrently.
func (f *Fleet) Drain(ctx context.Context) error {
	errs := make([]error, len(f.shards))
	var wg sync.WaitGroup
	for i, s := range f.shards {
		wg.Add(1)
		go func(i int, s *serve.Server) {
			defer wg.Done()
			errs[i] = s.Drain(ctx)
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Close drains the fleet with a short grace period.
func (f *Fleet) Close() error {
	errs := make([]error, len(f.shards))
	var wg sync.WaitGroup
	for i, s := range f.shards {
		wg.Add(1)
		go func(i int, s *serve.Server) {
			defer wg.Done()
			errs[i] = s.Close()
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ShardStats is one shard's row in the fleet /statz view.
type ShardStats struct {
	ID int `json:"id"`
	// RingFraction is the share of the digest space the shard owns — its
	// expected share of uniform traffic under RouteDigest.
	RingFraction float64 `json:"ring_fraction"`
	// Requests counts requests the router sent here (home + spill-in +
	// random).
	Requests int64 `json:"requests"`
	// Healthy mirrors serve.Server.Healthy at snapshot time.
	Healthy bool `json:"healthy"`
	// Serve is the shard's own serving snapshot: admission, cache,
	// scheduler, chaos counters.
	Serve serve.Stats `json:"serve"`
}

// Stats is the fleet-wide /statz document.
type Stats struct {
	Route    string        `json:"route"`
	VNodes   int           `json:"vnodes"`
	Shards   []ShardStats  `json:"shards"`
	Tenants  []TenantStats `json:"tenants"`
	Requests int64         `json:"requests"`
	// HomeHits counts requests served on their digest-home shard; Spills
	// those that overflowed elsewhere; Random the RouteRandom placements.
	HomeHits       int64 `json:"home_hits"`
	Spills         int64 `json:"spills"`
	Random         int64 `json:"random"`
	TenantRejected int64 `json:"tenant_rejected"`
	NoShard        int64 `json:"no_shard"`
	Failed         int64 `json:"failed"`
	// BaseRouted counts requests placed on the ring by their
	// X-Base-Digest hint (delta traffic pinned to its base's shard).
	BaseRouted int64 `json:"base_routed"`
	// Fleet-wide rollups summed over shards.
	CacheHits int64 `json:"cache_hits"`
	DedupHits int64 `json:"dedup_hits"`
	Completed int64 `json:"completed"`
	// IncrUpdates sums the shards' successful incremental updates.
	IncrUpdates int64 `json:"incr_updates"`
	NodesAlive  int   `json:"nodes_alive"`
}

// Snapshot returns current fleet stats, including every shard's own
// serving snapshot and ring ownership.
func (f *Fleet) Snapshot() Stats {
	own := f.ring.Ownership()
	st := Stats{
		Route:          f.cfg.Route,
		VNodes:         f.ring.VNodes(),
		Tenants:        f.tenants.stats(),
		Requests:       f.met.Counter("fed.requests").Value(),
		HomeHits:       f.met.Counter("fed.home").Value(),
		Spills:         f.met.Counter("fed.spill").Value(),
		Random:         f.met.Counter("fed.random").Value(),
		TenantRejected: f.met.Counter("fed.tenant_rejected").Value(),
		NoShard:        f.met.Counter("fed.no_shard").Value(),
		Failed:         f.met.Counter("fed.failed").Value(),
		BaseRouted:     f.met.Counter("fed.base_routed").Value(),
	}
	for i, s := range f.shards {
		ss := s.Snapshot()
		st.Shards = append(st.Shards, ShardStats{
			ID:           i,
			RingFraction: own[i],
			//mrlint:allow obsnames -- reads back the per-shard counters registered above; same bounded family
			Requests: f.met.Counter(fmt.Sprintf("fed.shard.%d.requests", i)).Value(),
			Healthy:  s.Healthy(),
			Serve:    ss,
		})
		st.CacheHits += ss.CacheHits
		st.DedupHits += ss.DedupHits
		st.Completed += ss.Completed
		if ss.Incr != nil {
			st.IncrUpdates += ss.Incr.Updates
		}
		st.NodesAlive += ss.NodesAlive
	}
	return st
}
