// Package serve is the inversion-as-a-service layer: it multiplexes many
// concurrent inversion requests onto one simulated MapReduce cluster,
// owning the request lifecycle the batch API does not have — bounded
// admission with backpressure, singleflight deduplication of identical
// in-flight matrices, a digest-keyed LRU cache of computed inverses,
// per-request deadlines threaded as context cancellation down to the job
// loop, and graceful drain on shutdown.
//
// The substitution argument mirrors the rest of the repository: a real
// deployment would put a cluster front-end (YARN gateway, job server) in
// front of shared Hadoop capacity; here a goroutine worker pool stands in
// for the front-end and the simulated cluster for the shared capacity.
// The control-plane decisions — admit, reject, dedup, cache, cancel,
// drain — are the real thing.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dfs"
	"repro/internal/incr"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/tsqr"
)

// ErrOverloaded reports that the admission queue is full; the caller
// should back off and retry (HTTP 429).
var ErrOverloaded = errors.New("serve: admission queue full")

// ErrDraining reports that the server is shutting down and accepts no new
// requests (HTTP 503).
var ErrDraining = errors.New("serve: server draining")

// Config sizes the serving layer.
type Config struct {
	// Concurrency is the number of pipelines executed at once (worker
	// goroutines). Default 2.
	Concurrency int
	// QueueDepth bounds how many admitted requests may wait beyond the
	// ones executing; an arrival finding the queue full is rejected with
	// ErrOverloaded. Default 16.
	QueueDepth int
	// CacheBytes is the inverse-result cache budget; <= 0 disables
	// caching.
	CacheBytes int64
	// DefaultTimeout is applied to requests whose context carries no
	// deadline; 0 means no default.
	DefaultTimeout time.Duration
	// MaxConcurrentJobs, when > 0, caps how many MapReduce jobs may hold
	// cluster slots at once — the tenancy knob that stops one request's
	// pipeline from starving every other tenant of the shared cluster.
	MaxConcurrentJobs int
	// SlotQuota, when > 0, caps the slots one job may hold while other
	// jobs wait (work-conserving per-job share bound).
	SlotQuota int
	// Opts is the base pipeline configuration (cluster shape, nb,
	// Section 6 toggles). A zero value selects core.DefaultOptions(8).
	Opts core.Options
	// Metrics receives serving and engine counters; one is created when
	// nil.
	Metrics *obs.Registry
	// Chaos, when non-nil, runs the server's shared cluster under the
	// given fault schedule: node kills/restarts, replica loss with
	// re-replication, stragglers, transient fetch errors. Speculative
	// execution is enabled so injected stragglers are recovered, and the
	// injected-fault counters are surfaced in /statz.
	Chaos *chaos.Plan
	// Tracer, when non-nil, records spans for the shared cluster's jobs
	// and the TSQR pipelines (tsqr.* spans), exportable as a Chrome
	// trace. Nil disables tracing at zero cost.
	Tracer *obs.Tracer
	// Incr configures the rank-k incremental inversion path
	// (internal/incr): on a cache miss, a recently inverted base matrix
	// within Incr.KMax changed rows is turned into the requested
	// inverse by a Sherman–Morrison–Woodbury update instead of a full
	// pipeline run. The zero value disables the path.
	Incr incr.Config
}

// Kind selects the computation a request asks for. The zero value is
// inversion, so existing callers are untouched.
type Kind string

const (
	// KindInvert runs the square block-LU inversion pipeline.
	KindInvert Kind = ""
	// KindLstsq solves min ||A x - b|| for a tall A via TSQR (or the
	// sequential QR kernel when the cost model prefers it).
	KindLstsq Kind = "lstsq"
	// KindPinv computes the pseudo-inverse A^+ of a tall full-rank A.
	KindPinv Kind = "pinv"
)

// Request is one computation to perform: a square inversion (the zero
// Kind), a tall least-squares solve (Kind = KindLstsq, with B the
// right-hand side), or a tall pseudo-inverse (Kind = KindPinv). Nodes
// and NB, when non-zero, override the server's base options for this
// request (and take part in the dedup/cache key). Priority is the
// request's fair-share scheduling class on the shared cluster: when
// slots are contended, higher-priority requests' tasks are granted slots
// first. It is deliberately not part of the dedup/cache key — the same
// matrix at any priority yields the same result, and a joiner inherits
// the leader's priority.
type Request struct {
	A        *matrix.Dense
	B        *matrix.Dense // KindLstsq right-hand side (m x k); nil otherwise
	Kind     Kind
	Nodes    int
	NB       int
	Priority int
	// BaseDigest is an optional client hint (HTTP X-Base-Digest): the
	// digest of a previously served base matrix this request is a
	// low-rank mutation of. It steers the incremental path's probe
	// straight to that base and, in the federation tier, routes the
	// request to the base's home shard. It is deliberately NOT part of
	// the dedup/cache key — the same matrix with or without the hint
	// yields the same result, and existing digests stay byte-compatible.
	BaseDigest string
}

// Result is a completed computation.
type Result struct {
	// Out is the computed matrix — the inverse, the least-squares
	// solution, or the pseudo-inverse, by request kind. It is shared with
	// the cache and other waiters: read-only.
	Out *matrix.Dense
	Rep *core.Report // nil on a cache hit
	// Source tells how the result was obtained: "pipeline" (this request
	// led the computation), "dedup" (attached to an identical in-flight
	// request), or "cache".
	Source string
}

// flight is one in-progress pipeline run shared by every concurrent
// request with the same key. Its execution context stays alive while at
// least one participant is still interested; when the last waiter leaves,
// the run is canceled at the next job boundary.
type flight struct {
	key      string
	req      Request
	opts     core.Options
	enqueued time.Time

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	out    *matrix.Dense
	rep    *core.Report
	err    error
	// src is set by execute() when the leader's computation took a
	// non-default path ("incremental"); empty means the pipeline ran.
	src string

	mu   sync.Mutex
	refs int
}

// tryAcquire adds a waiter, failing if the flight is already dead: the
// last waiter left (refs hit 0, which cancels the context) but execute()
// has not yet removed the flight from the server map. Joining such a
// flight would hand a live request a spurious context.Canceled.
func (f *flight) tryAcquire() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.refs == 0 || f.ctx.Err() != nil {
		return false
	}
	f.refs++
	return true
}

func (f *flight) release() {
	f.mu.Lock()
	f.refs--
	last := f.refs == 0
	f.mu.Unlock()
	if last {
		f.cancel()
	}
}

// Server multiplexes inversion requests onto one simulated cluster.
type Server struct {
	cfg     Config
	fs      *dfs.FS
	cluster *mapreduce.Cluster
	met     *obs.Registry
	cache   *resultCache
	chaos   *chaos.Engine   // nil unless Config.Chaos is set
	bases   *incr.BaseIndex // nil unless Config.Incr.Enabled

	queue    chan *flight
	stop     chan struct{}
	workers  sync.WaitGroup
	inflight sync.WaitGroup
	seq      atomic.Int64

	mu       sync.Mutex
	flights  map[string]*flight
	draining bool
}

// New builds a server with its own simulated cluster and starts its
// workers. Callers must Drain (or Close) it when done.
func New(cfg Config) (*Server, error) {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.Opts.Nodes == 0 && cfg.Opts.NB == 0 {
		cfg.Opts = core.DefaultOptions(8)
		cfg.Opts.NB = 64
	}
	if err := cfg.Opts.Validate(); err != nil {
		return nil, err
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Incr.Enabled {
		cfg.Incr = cfg.Incr.WithDefaults()
	}
	fs := dfs.New(cfg.Opts.Nodes, dfs.DefaultReplication)
	cl := mapreduce.NewCluster(fs, cfg.Opts.Nodes)
	cl.Metrics = cfg.Metrics
	cl.Tracer = cfg.Tracer
	cl.MaxConcurrentJobs = cfg.MaxConcurrentJobs
	cl.SlotQuota = cfg.SlotQuota
	fs.SetMetrics(cfg.Metrics)
	var eng *chaos.Engine
	if cfg.Chaos != nil {
		eng = chaos.New(fs, *cfg.Chaos)
		eng.SetObs(nil, cfg.Metrics)
		cl.Faults = eng
		// Injected stragglers must be recoverable, as on a real cluster.
		cl.Speculative = true
		cl.SpeculativeRatio = 2
		cl.SpeculativeSlack = 8 * time.Millisecond
	}
	s := &Server{
		cfg:     cfg,
		fs:      fs,
		cluster: cl,
		chaos:   eng,
		met:     cfg.Metrics,
		cache:   newResultCache(cfg.CacheBytes),
		queue:   make(chan *flight, cfg.QueueDepth),
		stop:    make(chan struct{}),
		flights: make(map[string]*flight),
	}
	if cfg.Incr.Enabled {
		s.bases = incr.NewBaseIndex(cfg.Incr.MaxBases)
	}
	for i := 0; i < cfg.Concurrency; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// Metrics returns the server's registry.
func (s *Server) Metrics() *obs.Registry { return s.met }

// BaseOptions returns the server's base pipeline options (before
// per-request overrides). The federation router digests requests against
// these to compute the same routing key Do will use.
func (s *Server) BaseOptions() core.Options { return s.cfg.Opts }

// QueueLoad reports the admission queue's current depth and capacity —
// the federation router's saturation probe. depth == capacity means the
// next leader-creating arrival would be rejected with ErrOverloaded.
func (s *Server) QueueLoad() (depth, capacity int) { return len(s.queue), cap(s.queue) }

// Healthy reports whether the server can take new work: not draining and
// at least one simulated datanode alive. A chaos plan that kills nodes
// flips this until restarts land.
func (s *Server) Healthy() bool { return !s.isDraining() && s.fs.AliveNodes() > 0 }

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// optsFor resolves the effective pipeline options for a request: the base
// configuration with per-request overrides and a unique work directory.
// A request may use fewer nodes than the cluster has, never more: the
// cluster size fixed the dfs and the slot pool, and each extra node is
// another task per job.
func (s *Server) optsFor(req Request) (core.Options, error) {
	opts := s.cfg.Opts
	if req.Nodes > opts.Nodes {
		return opts, fmt.Errorf("serve: nodes = %d exceeds the cluster's %d: %w",
			req.Nodes, opts.Nodes, core.ErrBadOptions)
	}
	if req.Nodes > 0 {
		opts.Nodes = req.Nodes
	}
	if req.NB > 0 {
		opts.NB = req.NB
	}
	opts.Priority = req.Priority
	opts.Root = fmt.Sprintf("srv/r%06d", s.seq.Add(1))
	err := opts.Validate()
	return opts, err
}

// validate checks a request's inputs by kind: square inversion inputs go
// through core.ValidateInput; tall solve inputs through the TSQR shape
// rules (rows >= cols, matching right-hand side).
func validate(req Request) error {
	switch req.Kind {
	case KindLstsq:
		if req.A == nil {
			return core.ErrNilMatrix
		}
		if req.A.Rows == 0 || req.A.Cols == 0 {
			return fmt.Errorf("%dx%d: %w", req.A.Rows, req.A.Cols, core.ErrEmptyMatrix)
		}
		if err := tsqr.ValidateTall(req.A); err != nil {
			return err
		}
		if req.B == nil {
			return fmt.Errorf("missing right-hand side: %w", core.ErrNilMatrix)
		}
		if req.B.Rows != req.A.Rows || req.B.Cols == 0 {
			return fmt.Errorf("A %dx%d, b %dx%d: %w",
				req.A.Rows, req.A.Cols, req.B.Rows, req.B.Cols, tsqr.ErrShapeMismatch)
		}
		return nil
	case KindPinv:
		if req.A == nil {
			return core.ErrNilMatrix
		}
		if req.A.Rows == 0 || req.A.Cols == 0 {
			return fmt.Errorf("%dx%d: %w", req.A.Rows, req.A.Cols, core.ErrEmptyMatrix)
		}
		return tsqr.ValidateTall(req.A)
	default:
		return core.ValidateInput(req.A)
	}
}

// Do runs one request through the serving lifecycle: validation,
// deadline check, cache lookup, singleflight join, bounded admission,
// pipeline execution, cache fill. It is safe for concurrent use.
func (s *Server) Do(ctx context.Context, req Request) (*Result, error) {
	start := time.Now()
	s.met.Counter("serve.requests").Add(1)
	switch req.Kind {
	case KindLstsq:
		s.met.Counter("serve.requests_lstsq").Add(1)
	case KindPinv:
		s.met.Counter("serve.requests_pinv").Add(1)
	}
	if err := validate(req); err != nil {
		s.met.Counter("serve.invalid").Add(1)
		return nil, err
	}
	opts, err := s.optsFor(req)
	if err != nil {
		s.met.Counter("serve.invalid").Add(1)
		return nil, err
	}
	if s.cfg.DefaultTimeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultTimeout)
			defer cancel()
		}
	}
	// An already-dead request must not touch the cluster at all.
	if err := ctx.Err(); err != nil {
		s.met.Counter("serve.expired").Add(1)
		return nil, err
	}
	// A draining server refuses all new work, cache hits included, so
	// callers move to another instance instead of lingering.
	if s.isDraining() {
		s.met.Counter("serve.drain_rejected").Add(1)
		return nil, ErrDraining
	}
	key := KeyFor(req, s.cfg.Opts)
	if out, ok := s.cache.Get(key); ok {
		s.met.Counter("serve.cache_hits").Add(1)
		s.met.Histogram("serve.e2e_latency").Observe(time.Since(start))
		return &Result{Out: out, Source: "cache"}, nil
	}
	s.met.Counter("serve.cache_misses").Add(1)

	f, leader, err := s.join(key, req, opts)
	if err != nil {
		return nil, err
	}
	defer f.release()
	if !leader {
		s.met.Counter("serve.dedup_hits").Add(1)
	}

	select {
	case <-ctx.Done():
		s.met.Counter("serve.canceled").Add(1)
		return nil, ctx.Err()
	case <-f.done:
	}
	if f.err != nil {
		s.met.Counter("serve.failed").Add(1)
		return nil, f.err
	}
	// The leader reports how the computation actually ran (execute()
	// upgrades src to "incremental" when the SMW path served it);
	// joiners attached to an in-flight computation regardless of path.
	source := "dedup"
	if leader {
		source = "pipeline"
		if f.src != "" {
			source = f.src
		}
	}
	s.met.Counter("serve.completed").Add(1)
	s.met.Histogram("serve.e2e_latency").Observe(time.Since(start))
	return &Result{Out: f.out, Rep: f.rep, Source: source}, nil
}

// join attaches the request to an identical in-flight computation, or
// creates one and submits it to the bounded admission queue. Waiters on an
// existing flight never consume a queue slot — deduplication is free
// capacity.
func (s *Server) join(key string, req Request, opts core.Options) (*flight, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.met.Counter("serve.drain_rejected").Add(1)
		return nil, false, ErrDraining
	}
	if f, ok := s.flights[key]; ok {
		if f.tryAcquire() {
			return f, false, nil
		}
		// Dead flight still in the map: start a fresh one in its place.
		// The overwrite below is safe because execute() only deletes the
		// map entry if it still points at its own flight.
	}
	fctx, cancel := context.WithCancel(context.Background())
	f := &flight{key: key, req: req, opts: opts, ctx: fctx, cancel: cancel,
		done: make(chan struct{}), refs: 1, enqueued: time.Now()}
	select {
	case s.queue <- f:
	default:
		cancel()
		s.met.Counter("serve.rejected").Add(1)
		return nil, false, ErrOverloaded
	}
	s.flights[key] = f
	s.inflight.Add(1)
	s.met.Counter("serve.admitted").Add(1)
	s.met.Gauge("serve.queue_depth").Set(int64(len(s.queue)))
	return f, true, nil
}

func (s *Server) worker() {
	defer s.workers.Done()
	for {
		select {
		case <-s.stop:
			return
		case f := <-s.queue:
			s.execute(f)
		}
	}
}

// execute runs one flight's pipeline on the shared cluster, fills the
// cache, and publishes the result to every waiter.
func (s *Server) execute(f *flight) {
	defer s.inflight.Done()
	s.met.Gauge("serve.queue_depth").Set(int64(len(s.queue)))
	s.met.Histogram("serve.queue_wait").Observe(time.Since(f.enqueued))
	if err := f.ctx.Err(); err != nil {
		// Every waiter left while the flight sat in the queue.
		f.err = err
	} else {
		begin := time.Now()
		switch f.req.Kind {
		case KindLstsq, KindPinv:
			f.out, f.rep, f.err = s.executeSolve(f)
		default:
			if out, rep, ok := s.tryIncremental(f); ok {
				f.out, f.rep, f.src = out, rep, "incremental"
			} else if p, perr := core.NewPipelineOn(f.opts, s.fs, s.cluster); perr != nil {
				f.err = perr
			} else {
				f.out, f.rep, f.err = p.InvertCtx(f.ctx, f.req.A)
			}
			if f.err == nil && s.bases != nil {
				// Every served inverse — pipeline or update — becomes a
				// probe candidate, so mutation chains A → A' → A'' keep
				// finding a rank-k-near base.
				s.bases.Add(f.key, f.req.A, f.out)
			}
		}
		s.met.Histogram("serve.pipeline_latency").Observe(time.Since(begin))
		if f.rep != nil {
			s.met.Histogram("serve.slot_wait").Observe(f.rep.SlotWait)
		}
	}
	// The run's intermediate files are dead weight on the shared DFS.
	s.fs.DeleteTree(f.opts.Root)
	if f.err == nil {
		s.met.Counter("serve.cache_evictions").Add(int64(s.cache.Put(f.key, f.out)))
	}
	s.mu.Lock()
	// A dead flight may have been replaced by a revival in join(); only
	// remove the entry if it is still ours.
	if s.flights[f.key] == f {
		delete(s.flights, f.key)
	}
	s.mu.Unlock()
	close(f.done)
}

// tryIncremental attempts to serve a cache-missed inversion as a
// rank-k Sherman–Morrison–Woodbury update against a recently served
// base inverse. The attempt is strictly best-effort: any failure —
// no base within KMax rows, a cost-model decline, a singular or
// ill-conditioned capacitance, or a residual-guardrail reject — returns
// ok=false and the caller runs the full pipeline, so the incremental
// path can only ever add latency, never wrong answers.
func (s *Server) tryIncremental(f *flight) (*matrix.Dense, *core.Report, bool) {
	if s.bases == nil {
		return nil, nil, false
	}
	n := f.req.A.Rows
	kmax := s.cfg.Incr.EffectiveKMax(n)
	s.met.Counter("incr.probes").Add(1)
	base, ok := s.probeBase(f.req, kmax)
	if !ok {
		return nil, nil, false
	}
	// The sketch proposed the base; the exact diff is authoritative
	// (a fingerprint collision could hide a changed row — the guardrail
	// below catches the resulting bad update).
	rows, ok := incr.DiffRowsExact(base.A, f.req.A, kmax)
	if !ok || len(rows) == 0 {
		s.met.Counter("incr.delta_too_large").Add(1)
		return nil, nil, false
	}
	s.met.Counter("incr.probe_hits").Add(1)
	choice := costmodel.ChooseUpdate(costmodel.ServingCluster(f.opts.Nodes),
		n, len(rows), f.opts.NB, len(s.queue))
	if !choice.Incremental() {
		s.met.Counter("incr.declined").Add(1)
		return nil, nil, false
	}
	u, v := incr.RowDelta(base.A, f.req.A, rows)
	begin := time.Now()
	x, err := incr.Update(base.Inv, u, v, s.cfg.Incr.CondMax)
	if err == nil {
		err = incr.Guard(f.req.A, x, s.cfg.Incr.ResidualTol, s.cfg.Incr.SampleCols)
	}
	if err != nil {
		if errors.Is(err, incr.ErrResidual) {
			s.met.Counter("incr.residual_rejects").Add(1)
		}
		s.met.Counter("incr.fallbacks").Add(1)
		return nil, nil, false
	}
	s.met.Counter("incr.updates").Add(1)
	elapsed := time.Since(begin)
	s.met.Histogram("incr.update_latency").Observe(elapsed)
	rep := &core.Report{Order: n, NB: f.opts.NB, Nodes: f.opts.Nodes, Elapsed: elapsed}
	return x, rep, true
}

// probeBase resolves the update candidate: the client-named base when
// the X-Base-Digest hint matches an indexed same-shape entry, else a
// fingerprint scan of the whole index.
func (s *Server) probeBase(req Request, kmax int) (*incr.Base, bool) {
	if req.BaseDigest != "" {
		if b, ok := s.bases.Lookup(req.BaseDigest); ok &&
			b.A.Rows == req.A.Rows && b.A.Cols == req.A.Cols {
			return b, true
		}
		// A stale or foreign hint degrades to the scan, never to an error.
	}
	b, _, ok := s.bases.Probe(req.A, kmax)
	return b, ok
}

// executeSolve runs a tall-matrix request (lstsq or pinv): the cost
// model picks, from the request shape alone (so equal digests always
// take the same path), between the two-round MapReduce TSQR pipeline on
// the shared cluster and the single-node sequential QR kernel.
func (s *Server) executeSolve(f *flight) (*matrix.Dense, *core.Report, error) {
	m, n := f.req.A.Dims()
	choice := costmodel.ChooseQR(costmodel.ServingCluster(f.opts.Nodes), m, n)
	rep := &core.Report{Order: m, NB: f.opts.NB, Nodes: f.opts.Nodes}
	if choice.Strategy == costmodel.QRSequential {
		s.met.Counter("serve.qr_sequential").Add(1)
		var out *matrix.Dense
		var err error
		if f.req.Kind == KindLstsq {
			out, err = tsqr.SequentialLstsq(f.req.A, f.req.B)
		} else {
			out, err = tsqr.SequentialPInv(f.req.A)
		}
		return out, rep, err
	}
	s.met.Counter("serve.qr_tsqr").Add(1)
	eng := &tsqr.Engine{FS: s.fs, Cluster: s.cluster, Tracer: s.cfg.Tracer, Metrics: s.met}
	cfg := tsqr.Config{Blocks: choice.Blocks, Root: f.opts.Root, Priority: f.opts.Priority}
	var out *matrix.Dense
	var trep *tsqr.Report
	var err error
	if f.req.Kind == KindLstsq {
		out, trep, err = eng.LeastSquaresCtx(f.ctx, f.req.A, f.req.B, cfg)
	} else {
		out, trep, err = eng.PInvCtx(f.ctx, f.req.A, cfg)
	}
	if trep != nil {
		rep.JobsRun = trep.JobsRun
		rep.MapTasks = trep.MapTasks
		rep.ReduceTasks = trep.ReduceTasks
		rep.Elapsed = trep.Elapsed
		rep.SlotWait = trep.SlotWait
		rep.SlotGrants = trep.SlotGrants
	}
	return out, rep, err
}

// Drain stops admission, waits (bounded by ctx) for in-flight work to
// finish, then stops the workers. Requests still queued when ctx expires
// are failed with ErrDraining. Drain is idempotent; after it returns the
// server accepts no work.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		return nil
	}
	finished := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(finished)
	}()
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		err = ctx.Err()
		// Fail whatever is still queued so no waiter hangs.
		for {
			select {
			case f := <-s.queue:
				f.err = ErrDraining
				s.mu.Lock()
				if s.flights[f.key] == f {
					delete(s.flights, f.key)
				}
				s.mu.Unlock()
				close(f.done)
				s.inflight.Done()
			default:
				// The queue is empty, so every flight left in the map is
				// executing. Cancel them so their pipelines stop at the
				// next job boundary and workers.Wait() returns within the
				// grace period's spirit instead of riding each run to
				// natural completion.
				s.mu.Lock()
				for _, f := range s.flights {
					f.cancel()
				}
				s.mu.Unlock()
				close(s.stop)
				s.workers.Wait()
				return err
			}
		}
	}
	close(s.stop)
	s.workers.Wait()
	return err
}

// Close drains with a short grace period.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Drain(ctx)
}

// Stats is a point-in-time snapshot of the serving layer for /statz.
type Stats struct {
	QueueDepth   int   `json:"queue_depth"`
	QueueCap     int   `json:"queue_cap"`
	CacheEntries int   `json:"cache_entries"`
	CacheBytes   int64 `json:"cache_bytes"`
	CacheBudget  int64 `json:"cache_budget"`
	Requests     int64 `json:"requests"`
	Admitted     int64 `json:"admitted"`
	Rejected     int64 `json:"rejected"`
	DedupHits    int64 `json:"dedup_hits"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	// CacheHitRate is hits / (hits + misses), 0 before any lookup.
	CacheHitRate float64 `json:"cache_hit_rate"`
	Completed    int64   `json:"completed"`
	Failed       int64   `json:"failed"`
	Canceled     int64   `json:"canceled"`
	Expired      int64   `json:"expired"`
	Draining     bool    `json:"draining"`
	// Scheduler is the shared cluster's slot-pool snapshot: capacity is
	// m0, peak is the concurrency high-water mark (never above capacity
	// by the scheduler invariant), and queue_depth counts task attempts
	// waiting for a slot right now.
	Scheduler mapreduce.SchedStats `json:"scheduler"`
	// SlotWaitCount / SlotWaitMeanMs summarize the per-attempt slot-wait
	// histogram: how often attempts queued for the shared cluster and
	// for how long on average.
	SlotWaitCount  int64   `json:"slot_wait_count"`
	SlotWaitMeanMs float64 `json:"slot_wait_mean_ms"`
	// NodesAlive is how many simulated datanodes are currently up (equals
	// the cluster size unless chaos is injecting kills).
	NodesAlive int `json:"nodes_alive"`
	// Chaos reports injected-fault counters when the server runs under a
	// chaos plan; nil otherwise.
	Chaos *chaos.Stats `json:"chaos,omitempty"`
	// Incr reports the incremental-inversion counters when the path is
	// enabled; nil otherwise.
	Incr *incr.Stats `json:"incr,omitempty"`
}

// Snapshot returns current serving stats.
func (s *Server) Snapshot() Stats {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	sw := s.met.Histogram("mapreduce.slot_wait").Snapshot()
	meanMs := 0.0
	if sw.Count > 0 {
		meanMs = float64(sw.Sum.Microseconds()) / float64(sw.Count) / 1000
	}
	var chaosStats *chaos.Stats
	if s.chaos != nil {
		st := s.chaos.Stats()
		chaosStats = &st
	}
	var incrStats *incr.Stats
	if s.bases != nil {
		incrStats = &incr.Stats{
			Probes:          s.met.Counter("incr.probes").Value(),
			ProbeHits:       s.met.Counter("incr.probe_hits").Value(),
			Updates:         s.met.Counter("incr.updates").Value(),
			Declined:        s.met.Counter("incr.declined").Value(),
			Fallbacks:       s.met.Counter("incr.fallbacks").Value(),
			ResidualRejects: s.met.Counter("incr.residual_rejects").Value(),
			BasesIndexed:    s.bases.Len(),
		}
	}
	hits := s.met.Counter("serve.cache_hits").Value()
	misses := s.met.Counter("serve.cache_misses").Value()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	return Stats{
		NodesAlive:     s.fs.AliveNodes(),
		Chaos:          chaosStats,
		QueueDepth:     len(s.queue),
		QueueCap:       cap(s.queue),
		CacheEntries:   s.cache.Len(),
		CacheBytes:     s.cache.Bytes(),
		CacheBudget:    s.cfg.CacheBytes,
		Requests:       s.met.Counter("serve.requests").Value(),
		Admitted:       s.met.Counter("serve.admitted").Value(),
		Rejected:       s.met.Counter("serve.rejected").Value(),
		DedupHits:      s.met.Counter("serve.dedup_hits").Value(),
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheHitRate:   hitRate,
		Incr:           incrStats,
		Completed:      s.met.Counter("serve.completed").Value(),
		Failed:         s.met.Counter("serve.failed").Value(),
		Canceled:       s.met.Counter("serve.canceled").Value(),
		Expired:        s.met.Counter("serve.expired").Value(),
		Draining:       draining,
		Scheduler:      s.cluster.Scheduler().Stats(),
		SlotWaitCount:  sw.Count,
		SlotWaitMeanMs: meanMs,
	}
}
