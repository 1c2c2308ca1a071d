package mapreduce

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dfs"
)

// raisePeak folds n into a compare-and-swap high-water mark.
func raisePeak(peak *atomic.Int64, n int64) {
	for {
		p := peak.Load()
		if n <= p || peak.CompareAndSwap(p, n) {
			return
		}
	}
}

// probeJob returns a job whose every task attempt records itself in a
// shared concurrency probe while it executes.
func probeJob(name string, tasks, reducers int, cur, peak *atomic.Int64) *Job {
	touch := func() {
		raisePeak(peak, cur.Add(1))
		time.Sleep(time.Millisecond)
		cur.Add(-1)
	}
	return &Job{
		Name:   name,
		Splits: ControlSplits(tasks),
		Map: func(ctx *TaskContext, split InputSplit, emit Emitter) error {
			touch()
			emit.Emit(fmt.Sprintf("k%d", split.ID%reducers), []byte("x"))
			return nil
		},
		Reduce: func(ctx *TaskContext, key string, values [][]byte, emit Emitter) error {
			touch()
			emit.Emit(key, []byte("y"))
			return nil
		},
		NumReduce: reducers,
	}
}

// TestConcurrentPipelinesShareSlots is the scheduler's core invariant:
// four pipelines (two jobs each) running concurrently on one shared
// cluster never exceed Cluster.Slots concurrently executing task
// attempts — the m0 accounting the paper's evaluation depends on. Run
// under -race by the suite's race step.
func TestConcurrentPipelinesShareSlots(t *testing.T) {
	const slots = 4
	fs := dfs.New(slots, 1)
	c := NewCluster(fs, slots)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 2; j++ {
				if _, err := c.Run(probeJob(fmt.Sprintf("p%d-j%d", w, j), 8, 4, &cur, &peak)); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if p := peak.Load(); p > slots {
		t.Fatalf("peak concurrently executing attempts = %d, want <= %d", p, slots)
	}
	st := c.Scheduler().Stats()
	if st.Peak > slots {
		t.Fatalf("pool peak = %d, want <= %d", st.Peak, slots)
	}
	// 8 jobs x (8 maps + 4 reduces) successful attempts at minimum.
	if st.Grants < 8*(8+4) {
		t.Fatalf("grants = %d, want >= %d", st.Grants, 8*(8+4))
	}
	if st.InUse != 0 {
		t.Fatalf("slots still in use after all jobs done: %d", st.InUse)
	}
}

// TestSharedClusterSlotWaitReported checks that contention shows up in
// the per-job slot-wait accounting surfaced through JobResult.
func TestSharedClusterSlotWaitReported(t *testing.T) {
	fs := dfs.New(2, 1)
	c := NewCluster(fs, 2)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var totalWait time.Duration
	var totalGrants int64
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := c.Run(probeJob(fmt.Sprintf("w%d", w), 6, 2, &cur, &peak))
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			totalWait += res.SlotWait
			totalGrants += res.SlotGrants
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if totalGrants < 3*(6+2) {
		t.Fatalf("grants = %d, want >= %d", totalGrants, 3*(6+2))
	}
	// 24 attempts of ~1ms on 2 slots: some attempt must have queued.
	if totalWait <= 0 {
		t.Fatalf("expected nonzero cumulative slot wait, got %v", totalWait)
	}
}

// TestMaxConcurrentJobs: with the tenancy knob at 1, two concurrent jobs
// on a 4-slot cluster never execute task attempts at the same time.
func TestMaxConcurrentJobs(t *testing.T) {
	fs := dfs.New(2, 1)
	c := NewCluster(fs, 4)
	c.MaxConcurrentJobs = 1
	var aIn, bIn atomic.Int64
	var overlap atomic.Bool
	mk := func(name string, self, other *atomic.Int64) *Job {
		return &Job{
			Name:   name,
			Splits: ControlSplits(6),
			Map: func(ctx *TaskContext, split InputSplit, emit Emitter) error {
				self.Add(1)
				if other.Load() > 0 {
					overlap.Store(true)
				}
				time.Sleep(500 * time.Microsecond)
				self.Add(-1)
				return nil
			},
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); c.Run(mk("a", &aIn, &bIn)) }()
	go func() { defer wg.Done(); c.Run(mk("b", &bIn, &aIn)) }()
	wg.Wait()
	if overlap.Load() {
		t.Fatal("MaxConcurrentJobs=1 allowed two jobs to execute attempts concurrently")
	}
}

// TestFairShareBoundedSkew: two equal jobs contending for two slots make
// comparable progress — when the first finishes its fixed work, the
// other is well past a quarter of its own (round-robin arbitration; a
// job-FIFO scheduler would leave the loser near zero).
func TestFairShareBoundedSkew(t *testing.T) {
	p := newSlotPool(2, 0, 0, nil)
	const perJob = 30
	run := func(j *SchedJob, done *atomic.Int64, fin chan<- struct{}) {
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perJob/2; i++ {
					s, _, ok := j.Acquire(context.Background(), nil)
					if !ok {
						t.Error("acquire denied")
						return
					}
					time.Sleep(300 * time.Microsecond)
					done.Add(1)
					j.Release(s)
				}
			}()
		}
		wg.Wait()
		close(fin)
	}
	a := p.Register("a", 0)
	b := p.Register("b", 0)
	var aDone, bDone atomic.Int64
	aFin, bFin := make(chan struct{}), make(chan struct{})
	go run(a, &aDone, aFin)
	go run(b, &bDone, bFin)
	var laggard int64
	select {
	case <-aFin:
		laggard = bDone.Load()
	case <-bFin:
		laggard = aDone.Load()
	}
	<-aFin
	<-bFin
	a.Close()
	b.Close()
	if laggard < perJob/4 {
		t.Fatalf("unfair share: laggard had finished only %d/%d when winner completed", laggard, perJob)
	}
	if g := a.Grants() + b.Grants(); g != 2*perJob {
		t.Fatalf("grants = %d, want %d", g, 2*perJob)
	}
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestPriorityWinsContendedSlot: with one slot held and two waiters
// queued, the higher-priority job is granted first regardless of queue
// order.
func TestPriorityWinsContendedSlot(t *testing.T) {
	p := newSlotPool(1, 0, 0, nil)
	hold := p.Register("hold", 0)
	lo := p.Register("lo", 0)
	hi := p.Register("hi", 5)
	s, _, ok := hold.Acquire(context.Background(), nil)
	if !ok {
		t.Fatal("initial acquire failed")
	}
	got := make(chan string, 2)
	go func() {
		if sl, _, ok := lo.Acquire(context.Background(), nil); ok {
			got <- "lo"
			lo.Release(sl)
		}
	}()
	waitFor(t, func() bool { return p.Stats().QueueDepth == 1 })
	go func() {
		if sl, _, ok := hi.Acquire(context.Background(), nil); ok {
			got <- "hi"
			hi.Release(sl)
		}
	}()
	waitFor(t, func() bool { return p.Stats().QueueDepth == 2 })
	hold.Release(s)
	if first := <-got; first != "hi" {
		t.Fatalf("first grant went to %q, want hi", first)
	}
	<-got
	hold.Close()
	lo.Close()
	hi.Close()
}

// TestSlotQuotaRedirectsToWaitingJob: a freed slot skips a job at its
// quota while another job is waiting.
func TestSlotQuotaRedirectsToWaitingJob(t *testing.T) {
	p := newSlotPool(4, 0, 2, nil)
	a := p.Register("a", 0)
	b := p.Register("b", 0)
	acq := func(j *SchedJob) int {
		t.Helper()
		s, _, ok := j.Acquire(context.Background(), nil)
		if !ok {
			t.Fatal("acquire failed")
		}
		return s
	}
	sa0, sa1 := acq(a), acq(a)
	sb0, sb1 := acq(b), acq(b) // pool now full: a holds 2, b holds 2
	_, _, _ = sa0, sa1, sb1
	aGot := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			if s, _, ok := a.Acquire(context.Background(), nil); ok {
				aGot <- s
			}
		}()
	}
	waitFor(t, func() bool { return p.Stats().QueueDepth == 2 })
	bGot := make(chan int, 1)
	go func() {
		if s, _, ok := b.Acquire(context.Background(), nil); ok {
			bGot <- s
		}
	}()
	waitFor(t, func() bool { return p.Stats().QueueDepth == 3 })
	// b gives one back: a is at quota (holds 2) with b waiting, so the
	// slot must return to b, not to a's earlier-queued waiters.
	b.Release(sb0)
	select {
	case <-bGot:
	case s := <-aGot:
		t.Fatalf("slot %d went to job a past its quota", s)
	case <-time.After(5 * time.Second):
		t.Fatal("freed slot granted to nobody")
	}
	a.Close() // denies a's pending waiters
	b.Close()
}

// TestAcquireCancellation: a waiter withdrawn by context cancellation or
// stop-channel close releases nothing and leaves the pool consistent.
func TestAcquireCancellation(t *testing.T) {
	p := newSlotPool(1, 0, 0, nil)
	j := p.Register("j", 0)
	s, _, ok := j.Acquire(context.Background(), nil)
	if !ok {
		t.Fatal("acquire failed")
	}
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan bool, 1)
	go func() {
		_, _, ok := j.Acquire(ctx, nil)
		res <- ok
	}()
	waitFor(t, func() bool { return p.Stats().QueueDepth == 1 })
	cancel()
	if <-res {
		t.Fatal("canceled acquire reported success")
	}
	if st := p.Stats(); st.QueueDepth != 0 {
		t.Fatalf("queue depth = %d after withdrawal", st.QueueDepth)
	}
	j.Release(s)
	if st := p.Stats(); st.InUse != 0 {
		t.Fatalf("in use = %d after release", st.InUse)
	}
	j.Close()
}

// TestCloseDeniesWaiters: closing a job wakes its queued acquires with
// ok=false instead of leaving them blocked.
func TestCloseDeniesWaiters(t *testing.T) {
	p := newSlotPool(1, 0, 0, nil)
	holder := p.Register("holder", 0)
	s, _, _ := holder.Acquire(context.Background(), nil)
	j := p.Register("j", 0)
	res := make(chan bool, 1)
	go func() {
		_, _, ok := j.Acquire(context.Background(), nil)
		res <- ok
	}()
	waitFor(t, func() bool { return p.Stats().QueueDepth == 1 })
	j.Close()
	if <-res {
		t.Fatal("acquire on closed job reported success")
	}
	holder.Release(s)
	holder.Close()
	if st := p.Stats(); st.Jobs != 0 || st.InUse != 0 || st.QueueDepth != 0 {
		t.Fatalf("pool not quiescent after close: %+v", st)
	}
}
