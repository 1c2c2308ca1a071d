package mapreduce

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
)

// SlotPool is the cluster-wide task scheduler: a shared pool of Slots
// execution tokens that every task attempt — map, reduce, and speculative
// backup — must hold while it runs. It is the piece Hadoop provides as the
// JobTracker/ResourceManager: a single arbiter over the cluster's m0 task
// slots, so that N concurrently submitted jobs share m0 slots instead of
// each conjuring its own m0 (which would break the paper's per-node
// accounting the moment the serving layer runs pipelines concurrently).
//
// Arbitration is fair-share: when a slot frees, it goes to the waiting job
// with the highest priority; among equal priorities, jobs are served
// round-robin, so two equal jobs each hold about half the cluster while
// both have demand. Two tenancy knobs bound a single tenant's reach:
//
//   - maxJobs caps how many jobs may hold slots at once (extra jobs queue
//     whole, FIFO within priority);
//   - quota caps how many slots one job may hold while other jobs are
//     waiting. The cap is work-conserving: a lone job may still use the
//     whole cluster.
//
// The pool also carries the scheduler's observability: a high-water mark
// of concurrently held slots (the invariant tests probe), grant counts,
// and per-acquire wait durations fed to the cluster's metrics registry.
type SlotPool struct {
	capacity int
	maxJobs  int
	quota    int
	met      *obs.Registry

	mu      sync.Mutex
	free    []int // FIFO queue of slot tokens
	jobs    []*SchedJob
	rr      int // index into jobs of the last job granted a slot
	inUse   int
	peak    int
	grants  int64
	waiting int
}

// newSlotPool builds a pool of capacity slots. maxJobs <= 0 means no cap
// on concurrently admitted jobs; quota <= 0 means no per-job slot cap.
// met may be nil (no-op instruments).
func newSlotPool(capacity, maxJobs, quota int, met *obs.Registry) *SlotPool {
	if capacity < 1 {
		capacity = 1
	}
	free := make([]int, capacity)
	for i := range free {
		free[i] = i
	}
	p := &SlotPool{capacity: capacity, maxJobs: maxJobs, quota: quota, met: met, free: free}
	p.met.Gauge("mapreduce.slots").Set(int64(capacity))
	return p
}

// SchedJob is one job's handle on the pool: the unit of fair-share
// arbitration. All task attempts of a job acquire through its handle.
type SchedJob struct {
	pool     *SlotPool
	name     string
	priority int
	admitted bool
	closed   bool
	held     int
	waiters  []*slotWaiter

	grants int64
	wait   time.Duration
}

// slotWaiter is one blocked Acquire. The channel has capacity 1 so
// dispatch never blocks while holding the pool lock; a grant of -1 means
// the job was closed under the waiter.
type slotWaiter struct {
	ch chan int
	at time.Time
}

// Register adds a job to the arbitration ring. Higher priority values win
// slots first. Under maxJobs, a job past the cap is registered but not
// admitted: its acquires queue until a running job closes.
func (p *SlotPool) Register(name string, priority int) *SchedJob {
	j := &SchedJob{pool: p, name: name, priority: priority}
	p.mu.Lock()
	j.admitted = p.maxJobs <= 0 || p.admittedCount() < p.maxJobs
	p.jobs = append(p.jobs, j)
	p.mu.Unlock()
	return j
}

func (p *SlotPool) admittedCount() int {
	n := 0
	for _, j := range p.jobs {
		if j.admitted {
			n++
		}
	}
	return n
}

// Acquire blocks until the job is granted a slot, the context is
// canceled, or stop closes. It returns the slot token (to be handed back
// via Release), the time spent waiting, and whether a slot was actually
// granted.
func (j *SchedJob) Acquire(ctx context.Context, stop <-chan struct{}) (slot int, wait time.Duration, ok bool) {
	p := j.pool
	w := &slotWaiter{ch: make(chan int, 1), at: time.Now()} //mrlint:allow determinism(time.Now) -- slot-wait accounting only; scheduling order is priority+round-robin, not time
	p.mu.Lock()
	if j.closed {
		p.mu.Unlock()
		return 0, 0, false
	}
	j.waiters = append(j.waiters, w)
	p.waiting++
	p.dispatch()
	p.mu.Unlock()

	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case s := <-w.ch:
		return j.granted(w, s)
	case <-stop:
	case <-done:
	}
	// Canceled: withdraw the waiter — unless dispatch already granted it,
	// in which case the slot must go straight back to the pool.
	p.mu.Lock()
	for i, q := range j.waiters {
		if q == w {
			j.waiters = append(j.waiters[:i], j.waiters[i+1:]...)
			p.waiting--
			p.mu.Unlock()
			return 0, 0, false
		}
	}
	p.mu.Unlock()
	if s := <-w.ch; s >= 0 {
		j.Release(s)
	}
	return 0, 0, false
}

// granted finalizes a successful grant: a -1 means the job was closed
// while the waiter was queued.
func (j *SchedJob) granted(w *slotWaiter, s int) (int, time.Duration, bool) {
	if s < 0 {
		return 0, 0, false
	}
	d := time.Since(w.at)
	p := j.pool
	p.mu.Lock()
	j.wait += d
	p.mu.Unlock()
	p.met.Histogram("mapreduce.slot_wait").Observe(d)
	return s, d, true
}

// Release returns a slot to the pool and hands it to the next waiter
// under the fair-share policy. Safe to call after Close: a straggler
// attempt outliving its job still gives its slot back.
func (j *SchedJob) Release(slot int) {
	p := j.pool
	p.mu.Lock()
	j.held--
	p.inUse--
	p.free = append(p.free, slot)
	p.dispatch()
	p.mu.Unlock()
}

// Close removes the job from arbitration, denies its pending waiters, and
// — under maxJobs — admits the next queued job. Idempotent.
func (j *SchedJob) Close() {
	p := j.pool
	p.mu.Lock()
	if j.closed {
		p.mu.Unlock()
		return
	}
	j.closed = true
	for _, w := range j.waiters {
		w.ch <- -1
		p.waiting--
	}
	j.waiters = nil
	for i, q := range p.jobs {
		if q == j {
			p.jobs = append(p.jobs[:i], p.jobs[i+1:]...)
			if p.rr >= i && p.rr > 0 {
				p.rr--
			}
			break
		}
	}
	if j.admitted && p.maxJobs > 0 {
		p.admitNext()
	}
	p.dispatch()
	p.mu.Unlock()
}

// admitNext promotes the highest-priority unadmitted job (registration
// order breaking ties). Caller holds p.mu.
func (p *SlotPool) admitNext() {
	if p.admittedCount() >= p.maxJobs {
		return
	}
	var best *SchedJob
	for _, j := range p.jobs {
		if !j.admitted && (best == nil || j.priority > best.priority) {
			best = j
		}
	}
	if best != nil {
		best.admitted = true
	}
}

// dispatch hands free slots to waiting jobs: highest priority first,
// round-robin within a priority class, per-job quota enforced only while
// another job is waiting. Caller holds p.mu.
func (p *SlotPool) dispatch() {
	for len(p.free) > 0 {
		j := p.pick()
		if j == nil {
			break
		}
		w := j.waiters[0]
		j.waiters = j.waiters[1:]
		p.waiting--
		s := p.free[0]
		p.free = p.free[1:]
		j.held++
		j.grants++
		p.inUse++
		p.grants++
		if p.inUse > p.peak {
			p.peak = p.inUse
		}
		w.ch <- s
	}
	p.met.Gauge("mapreduce.slots_in_use").Set(int64(p.inUse))
	p.met.Gauge("mapreduce.sched_queue_depth").Set(int64(p.waiting))
}

// pick selects the next job to grant to, or nil if no admitted job can
// take a slot. Caller holds p.mu.
func (p *SlotPool) pick() *SchedJob {
	eligible := func(j *SchedJob, enforceQuota bool) bool {
		if !j.admitted || len(j.waiters) == 0 {
			return false
		}
		if enforceQuota && p.quota > 0 && j.held >= p.quota {
			return false
		}
		return true
	}
	othersWaiting := 0
	for _, j := range p.jobs {
		if j.admitted && len(j.waiters) > 0 {
			othersWaiting++
		}
	}
	// The quota binds only under contention (othersWaiting > 1): a lone
	// job may use the whole cluster.
	for _, enforceQuota := range []bool{othersWaiting > 1, false} {
		maxPri, found := 0, false
		for _, j := range p.jobs {
			if eligible(j, enforceQuota) && (!found || j.priority > maxPri) {
				maxPri, found = j.priority, true
			}
		}
		if !found {
			continue
		}
		n := len(p.jobs)
		for k := 1; k <= n; k++ {
			j := p.jobs[(p.rr+k)%n]
			if eligible(j, enforceQuota) && j.priority == maxPri {
				for i, q := range p.jobs {
					if q == j {
						p.rr = i
						break
					}
				}
				return j
			}
		}
	}
	return nil
}

// SchedStats is a point-in-time snapshot of the pool for /statz and
// tests.
type SchedStats struct {
	Capacity   int   `json:"capacity"`
	InUse      int   `json:"in_use"`
	Peak       int   `json:"peak"`
	Grants     int64 `json:"grants"`
	QueueDepth int   `json:"queue_depth"`
	Jobs       int   `json:"jobs"`
}

// Stats snapshots the pool.
func (p *SlotPool) Stats() SchedStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return SchedStats{
		Capacity:   p.capacity,
		InUse:      p.inUse,
		Peak:       p.peak,
		Grants:     p.grants,
		QueueDepth: p.waiting,
		Jobs:       len(p.jobs),
	}
}

// Grants returns how many slots this job has been granted.
func (j *SchedJob) Grants() int64 {
	j.pool.mu.Lock()
	defer j.pool.mu.Unlock()
	return j.grants
}

// WaitTotal returns the cumulative time this job's attempts spent waiting
// for slots.
func (j *SchedJob) WaitTotal() time.Duration {
	j.pool.mu.Lock()
	defer j.pool.mu.Unlock()
	return j.wait
}
