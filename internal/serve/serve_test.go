package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/workload"
)

func testConfig() Config {
	opts := core.DefaultOptions(4)
	opts.NB = 16
	return Config{Concurrency: 2, QueueDepth: 16, CacheBytes: 16 << 20, Opts: opts}
}

func mustServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func checkInverse(t *testing.T, a, inv *matrix.Dense) {
	t.Helper()
	res, err := matrix.IdentityResidual(a, inv)
	if err != nil {
		t.Fatal(err)
	}
	if res > 1e-8 {
		t.Fatalf("residual %g", res)
	}
}

func TestDoInvertsCorrectly(t *testing.T) {
	s := mustServer(t, testConfig())
	a := workload.DiagonallyDominant(48, 3)
	res, err := s.Do(context.Background(), Request{A: a})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "pipeline" {
		t.Fatalf("source %q", res.Source)
	}
	if res.Rep == nil || res.Rep.JobsRun == 0 {
		t.Fatal("no job report from a pipeline run")
	}
	checkInverse(t, a, res.Out)
}

func TestCacheHitOnRepeat(t *testing.T) {
	s := mustServer(t, testConfig())
	a := workload.DiagonallyDominant(32, 5)
	if _, err := s.Do(context.Background(), Request{A: a}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Do(context.Background(), Request{A: a})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "cache" {
		t.Fatalf("second identical request source %q, want cache", res.Source)
	}
	checkInverse(t, a, res.Out)
	if got := s.Metrics().Counter("serve.cache_hits").Value(); got != 1 {
		t.Fatalf("cache_hits = %d", got)
	}
	// A different nb is a different floating-point computation: no hit.
	if res, err = s.Do(context.Background(), Request{A: a, NB: 8}); err != nil {
		t.Fatal(err)
	} else if res.Source == "cache" {
		t.Fatal("request with different nb must not share the cache entry")
	}
}

func TestValidationSentinels(t *testing.T) {
	s := mustServer(t, testConfig())
	cases := []struct {
		a    *matrix.Dense
		want error
	}{
		{nil, core.ErrNilMatrix},
		{matrix.New(0, 0), core.ErrEmptyMatrix},
		{matrix.New(2, 3), core.ErrNotSquare},
	}
	for _, c := range cases {
		_, err := s.Do(context.Background(), Request{A: c.a})
		if !errors.Is(err, c.want) {
			t.Fatalf("Do(%v) = %v, want %v", c.a, err, c.want)
		}
	}
	if got := s.Metrics().Counter("serve.invalid").Value(); got != 3 {
		t.Fatalf("serve.invalid = %d", got)
	}
	if got := s.Metrics().Counter("mapreduce.jobs").Value(); got != 0 {
		t.Fatalf("invalid inputs ran %d jobs", got)
	}
}

func TestExpiredDeadlineSkipsPipeline(t *testing.T) {
	s := mustServer(t, testConfig())
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := s.Do(ctx, Request{A: workload.DiagonallyDominant(32, 9)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	met := s.Metrics()
	if got := met.Counter("serve.expired").Value(); got != 1 {
		t.Fatalf("serve.expired = %d", got)
	}
	if got := met.Counter("serve.admitted").Value(); got != 0 {
		t.Fatalf("expired request was admitted (%d)", got)
	}
	if got := met.Counter("mapreduce.jobs").Value(); got != 0 {
		t.Fatalf("expired request ran %d jobs", got)
	}
}

func TestDeadlineCancelsMidPipeline(t *testing.T) {
	// Deep pipeline (order 192, nb 8) so a 2ms budget expires long before
	// the run completes; the flight must stop at a job boundary. The input
	// is built before the clock starts, and an attempt whose 2ms ran out
	// before admission (a descheduled test process on a loaded box counts
	// as serve.expired, not serve.canceled) is repeated on a fresh server.
	a := workload.DiagonallyDominant(192, 4)
	for attempt := 0; attempt < 10; attempt++ {
		s := mustServer(t, testConfig())
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		_, err := s.Do(ctx, Request{A: a, NB: 8})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want DeadlineExceeded", err)
		}
		if s.Metrics().Counter("serve.expired").Value() == 1 {
			continue
		}
		if got := s.Metrics().Counter("serve.canceled").Value(); got != 1 {
			t.Fatalf("serve.canceled = %d", got)
		}
		return
	}
	t.Fatal("the deadline expired before admission in every attempt")
}

func TestSingleflightDedupConcurrentIdentical(t *testing.T) {
	cfg := testConfig()
	cfg.Concurrency = 1 // one worker: the blocker pins it while joiners pile up
	s := mustServer(t, cfg)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Do(context.Background(), Request{A: workload.DiagonallyDominant(128, 99)}); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()
	// Wait until the blocker owns the worker before offering duplicates.
	for s.Metrics().Counter("serve.admitted").Value() == 0 {
		time.Sleep(100 * time.Microsecond)
	}

	a := workload.DiagonallyDominant(32, 7)
	const dupes = 8
	results := make([]*Result, dupes)
	errs := make([]error, dupes)
	for i := 0; i < dupes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Do(context.Background(), Request{A: a})
		}(i)
	}
	wg.Wait()

	for i := 0; i < dupes; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		checkInverse(t, a, results[i].Out)
		if results[i].Out != results[0].Out {
			t.Fatal("deduplicated requests must share one inverse")
		}
	}
	met := s.Metrics()
	if got := met.Counter("serve.dedup_hits").Value(); got != dupes-1 {
		t.Fatalf("dedup_hits = %d, want %d", got, dupes-1)
	}
	// Two pipelines total: the blocker and one leader for all duplicates.
	if got := met.Counter("serve.admitted").Value(); got != 2 {
		t.Fatalf("admitted = %d, want 2", got)
	}
}

// TestJoinRevivesDeadFlight reproduces the singleflight revival race: the
// last waiter of a flight has released it (refs 0, context canceled) but
// execute() has not yet removed it from the map. A new request arriving in
// that window must start a fresh flight, not inherit the canceled one and
// fail with a spurious context.Canceled.
func TestJoinRevivesDeadFlight(t *testing.T) {
	s := mustServer(t, testConfig())
	a := workload.DiagonallyDominant(24, 42)
	opts, err := s.optsFor(Request{A: a})
	if err != nil {
		t.Fatal(err)
	}
	key := requestKey(a, opts.Nodes, opts.NB,
		opts.SeparateFiles, opts.BlockWrap, opts.TransposeU, opts.StreamingInversion)

	fctx, cancel := context.WithCancel(context.Background())
	cancel()
	dead := &flight{key: key, ctx: fctx, cancel: cancel, done: make(chan struct{})}
	s.mu.Lock()
	s.flights[key] = dead
	s.mu.Unlock()

	res, err := s.Do(context.Background(), Request{A: a})
	if err != nil {
		t.Fatalf("request joining a dead flight: %v", err)
	}
	if res.Source != "pipeline" {
		t.Fatalf("source %q, want pipeline (fresh flight, not the dead one)", res.Source)
	}
	checkInverse(t, a, res.Out)
	if got := s.Metrics().Counter("serve.dedup_hits").Value(); got != 0 {
		t.Fatalf("dedup_hits = %d on a dead flight", got)
	}
}

// TestDrainCancelsExecutingFlights: when the drain grace expires, running
// pipelines must be canceled at the next job boundary so Drain returns
// promptly instead of riding each run to natural completion.
func TestDrainCancelsExecutingFlights(t *testing.T) {
	cfg := testConfig()
	cfg.Concurrency = 1
	s := mustServer(t, cfg)

	var wg sync.WaitGroup
	var doErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Deep pipeline: many jobs left once the drain deadline fires. The
		// order is large enough that even a test goroutine starved by a
		// loaded machine drains while dozens of jobs still remain.
		_, doErr = s.Do(context.Background(), Request{A: workload.DiagonallyDominant(320, 11), NB: 8})
	}()
	// Wait until the pipeline is actually executing (past admission).
	for s.Metrics().Counter("mapreduce.jobs").Value() == 0 {
		time.Sleep(100 * time.Microsecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
	wg.Wait()
	if doErr == nil {
		t.Fatal("pipeline ran to completion past the drain grace period")
	}
}

func TestOverloadRejectsAndStaysHealthy(t *testing.T) {
	cfg := testConfig()
	cfg.Concurrency = 1
	cfg.QueueDepth = 1
	s := mustServer(t, cfg)

	const burst = 12
	var wg sync.WaitGroup
	errs := make([]error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct matrices: no dedup relief, pure admission pressure.
			_, errs[i] = s.Do(context.Background(), Request{A: workload.DiagonallyDominant(32, int64(100+i))})
		}(i)
	}
	wg.Wait()

	rejected, ok := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrOverloaded):
			rejected++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if rejected == 0 {
		t.Fatalf("no rejections from a burst of %d on queue depth 1", burst)
	}
	if ok+rejected != burst {
		t.Fatalf("ok %d + rejected %d != %d", ok, rejected, burst)
	}
	if got := s.Metrics().Counter("serve.rejected").Value(); got != int64(rejected) {
		t.Fatalf("serve.rejected = %d, want %d", got, rejected)
	}
	// The server must stay healthy: the next request succeeds.
	a := workload.DiagonallyDominant(24, 999)
	res, err := s.Do(context.Background(), Request{A: a})
	if err != nil {
		t.Fatalf("post-burst request failed: %v", err)
	}
	checkInverse(t, a, res.Out)
}

func TestDrainRejectsNewWork(t *testing.T) {
	s := mustServer(t, testConfig())
	a := workload.DiagonallyDominant(24, 1)
	if _, err := s.Do(context.Background(), Request{A: a}); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Do(context.Background(), Request{A: a}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Do after drain = %v, want ErrDraining", err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	if !s.Snapshot().Draining {
		t.Fatal("snapshot not draining")
	}
}

func TestCacheEvictionByteBudget(t *testing.T) {
	sz := matrixBytes(matrix.New(8, 8))
	c := newResultCache(3*sz + 8)
	for i := 0; i < 5; i++ {
		inv := workload.DiagonallyDominant(8, int64(i))
		if ev := c.Put(fmt.Sprintf("k%d", i), inv); i < 3 && ev != 0 {
			t.Fatalf("early eviction at insert %d", i)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if c.Bytes() > 3*sz+8 {
		t.Fatalf("Bytes %d over budget", c.Bytes())
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("oldest entry survived over-budget inserts")
	}
	if _, ok := c.Get("k4"); !ok {
		t.Fatal("newest entry missing")
	}
	// LRU promotion: touching k2 must make k3 the eviction victim.
	if _, ok := c.Get("k2"); !ok {
		t.Fatal("k2 missing")
	}
	c.Put("k5", workload.DiagonallyDominant(8, 5))
	if _, ok := c.Get("k2"); !ok {
		t.Fatal("recently used k2 evicted")
	}
	if _, ok := c.Get("k3"); ok {
		t.Fatal("least recently used k3 survived")
	}
}

func TestCacheRejectsOversizedEntry(t *testing.T) {
	c := newResultCache(64) // smaller than any 8x8
	if ev := c.Put("big", matrix.New(8, 8)); ev != 0 || c.Len() != 0 {
		t.Fatalf("oversized entry admitted (len %d, evicted %d)", c.Len(), ev)
	}
}

func TestRequestKeySensitivity(t *testing.T) {
	a := workload.DiagonallyDominant(16, 1)
	b := workload.DiagonallyDominant(16, 2)
	base := requestKey(a, 8, 64, true, true, true, false)
	if requestKey(a, 8, 64, true, true, true, false) != base {
		t.Fatal("key not deterministic")
	}
	for name, other := range map[string]string{
		"matrix": requestKey(b, 8, 64, true, true, true, false),
		"nodes":  requestKey(a, 4, 64, true, true, true, false),
		"nb":     requestKey(a, 8, 32, true, true, true, false),
		"toggle": requestKey(a, 8, 64, true, false, true, false),
	} {
		if other == base {
			t.Fatalf("key ignores %s", name)
		}
	}
}
