// Package mapreduce is a from-scratch MapReduce engine reproducing the
// execution contract the HPDC 2014 paper relies on from Hadoop:
//
//   - a job is a set of independent map tasks over input splits, a shuffle
//     that groups emitted (key, value) pairs by key, and a set of
//     independent reduce tasks;
//   - tasks communicate only through their inputs and outputs (here: the
//     simulated distributed file system and the shuffled pairs);
//   - failed task attempts are re-executed (fault tolerance), and only a
//     successful attempt's output is visible;
//   - jobs are chained into pipelines, each launch paying a fixed
//     scheduling overhead — the constant the paper's nb tuning balances
//     against master-node decomposition time (Section 5).
//
// Tasks execute on a pool of simulated cluster nodes backed by goroutines.
// The engine is deterministic for deterministic task functions: shuffle
// output is sorted by key and, within a key, by map task order.
package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/dfs"
	"repro/internal/obs"
)

// ErrTooManyFailures is returned when a task exhausts its attempts.
var ErrTooManyFailures = errors.New("mapreduce: task failed too many times")

// ErrJobCanceled is returned by RunCtx when the job's context is canceled
// or its deadline expires before the job completes. The underlying
// context error (context.Canceled or context.DeadlineExceeded) is wrapped
// alongside it, so errors.Is matches either.
var ErrJobCanceled = errors.New("mapreduce: job canceled")

// ErrNodeLost marks a task attempt whose simulated node died (or died and
// restarted — either way the attempt's output is gone) before the attempt
// finished. Such attempts are charged as ordinary task failures and
// re-executed elsewhere, the Hadoop TaskTracker-lost semantics.
var ErrNodeLost = errors.New("mapreduce: node lost during attempt")

// FaultPlane is the engine's view of a fault injector (internal/chaos
// provides the real one). All methods must be safe for concurrent use.
//
// The engine consults it at three points:
//
//   - workers on dead nodes (NodeAlive) claim no task attempts, the way
//     a JobTracker stops granting slots on a lost tracker;
//   - every task attempt calls AttemptStart when it begins — the injector
//     may delay the attempt (straggler injection) or fail it outright
//     (crash injection) — and on completion the attempt is failed with
//     ErrNodeLost if its node's epoch changed while it ran;
//   - before the shuffle consumes a map output, FetchError simulates the
//     reducer's HTTP fetch of that output from the node that produced it;
//     errors are retried with bounded backoff and a node that stays
//     unreachable loses the output, forcing map re-execution.
type FaultPlane interface {
	// NodeAlive reports whether the node is currently up.
	NodeAlive(node int) bool
	// NodeEpoch returns the node's incarnation number; it changes every
	// time the node is killed, so an attempt that spans a change knows its
	// output died with the old incarnation.
	NodeEpoch(node int) int64
	// AttemptStart is called as a task attempt begins executing on node.
	// It returns an artificial execution delay (straggler injection) and,
	// when non-nil, an error that fails the attempt immediately.
	AttemptStart(job string, task, attempt, node int, isMap bool) (time.Duration, error)
	// FetchError simulates one shuffle fetch of task's map output from
	// node; try counts retries of the same fetch (0 = first). A non-nil
	// error makes the engine back off and retry, up to maxFetchTries.
	FetchError(job string, task, node, try int) error
}

// KV is one key/value pair flowing through the shuffle.
type KV struct {
	Key   string
	Value []byte
}

// Emitter collects pairs from map and reduce functions.
type Emitter interface {
	Emit(key string, value []byte)
}

// InputSplit is the unit of map-task input. The paper's jobs use one tiny
// control file per mapper containing the worker index (Section 5.1); Data
// carries such inline payloads and Path optionally points into the DFS.
type InputSplit struct {
	ID   int
	Path string
	Data []byte
}

// TaskContext is passed to every map and reduce invocation.
type TaskContext struct {
	JobName string
	TaskID  int
	Attempt int
	// Node is the simulated cluster node executing this attempt; tasks
	// use it for locality-aware DFS reads.
	Node int
	// FS is the shared distributed file system.
	FS *dfs.FS
	// Config carries job-level parameters.
	Config map[string]string

	// counters accumulates this attempt's Hadoop-style counters; they are
	// folded into the job's totals only if the attempt succeeds.
	counters map[string]int64
}

// IncrCounter adds delta to a named job counter (Hadoop's
// Reporter.incrCounter). Counters from failed or superseded attempts are
// discarded, matching Hadoop's successful-attempt accounting.
func (ctx *TaskContext) IncrCounter(name string, delta int64) {
	if ctx.counters == nil {
		ctx.counters = map[string]int64{}
	}
	ctx.counters[name] += delta
}

// MapFunc processes one input split.
type MapFunc func(ctx *TaskContext, split InputSplit, emit Emitter) error

// ReduceFunc processes one key group.
type ReduceFunc func(ctx *TaskContext, key string, values [][]byte, emit Emitter) error

// Partitioner maps a key to a reduce task index.
type Partitioner func(key string, numReduce int) int

// defaultPartitioner hashes the key (FNV-1a), Hadoop's default behaviour.
func defaultPartitioner(key string, numReduce int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32()) % numReduce
}

// CombineFunc merges the values of one key on the map side before the
// shuffle (Hadoop's combiner). It must be associative and commutative.
type CombineFunc func(key string, values [][]byte) []byte

// Job describes one MapReduce job.
type Job struct {
	Name      string
	Splits    []InputSplit
	Map       MapFunc
	Reduce    ReduceFunc // nil means a map-only job (like the partition job)
	NumReduce int
	// Combine, when non-nil, collapses each map task's output per key
	// before the shuffle, cutting ShuffledKVs (the classic wordcount
	// optimization).
	Combine    CombineFunc
	Partition  Partitioner // nil selects defaultPartitioner
	Config     map[string]string
	MaxAttempt int // per-task attempt budget; 0 selects the cluster default
	// Prefer[i] lists the datanodes holding map task i's input; a task
	// past the table's end, or with an empty entry, runs anywhere. The
	// table is built once with the job, because the scheduler consults
	// it for every pending task on every claim. The scheduler practices
	// delay scheduling: a worker on a non-preferred node defers such a
	// task (a bounded number of times) so a local worker can pick it up,
	// reproducing Hadoop's data-local task placement. A deferral is one
	// skipped scheduling opportunity: an idle worker passing the task
	// over while it looks for work.
	Prefer [][]int
	// PreferReduce[r] lists the datanodes that should run reduce task r —
	// the reduce-side counterpart of Prefer. The standalone multiply
	// pins its reducers to the nodes holding their favored-placement
	// input pieces so reads stay local; the same
	// delay-scheduling budget applies, and a dead preferred node simply
	// falls back to any worker.
	PreferReduce [][]int
	// StrictLocality removes the bounded delay-scheduling budget: a task
	// with a preference waits for a preferred worker indefinitely instead
	// of spilling to whichever node's budget expires first. A preference
	// is waived only when no live worker can ever satisfy it (every
	// preferred node dead or outside the worker range), so strict jobs
	// degrade like budget expiry rather than deadlocking. The multiply
	// strategies set this to make their DFS transfer accounting
	// deterministic — the shuffle-bytes CI gate depends on it.
	StrictLocality bool
	// Priority is the job's fair-share scheduling priority: when slots
	// are contended, higher-priority jobs are granted slots first, and
	// equal priorities share round-robin. Zero is the default class.
	Priority int
	// TraceParent, when non-nil, parents this job's trace span under an
	// enclosing span (the pipeline span). When nil, the cluster's Tracer
	// (if any) records the job as a root span.
	TraceParent *obs.Span
}

// JobResult reports one executed job.
type JobResult struct {
	Job          string
	Output       []KV // reduce output (or map output for map-only jobs), sorted
	MapTasks     int
	ReduceTasks  int
	TaskFailures int
	// SpeculativeTasks counts backup attempts launched for stragglers.
	SpeculativeTasks int
	// LostMapOutputs counts completed map outputs that became unreadable
	// (their node died) and forced the map task to re-execute.
	LostMapOutputs int
	// FetchRetries counts shuffle-fetch retries caused by transient fetch
	// errors or dying nodes.
	FetchRetries int
	ShuffledKVs  int
	// BytesRead, BytesWritten and TransferredBytes are the cluster DFS's
	// byte-counter deltas over this job's run — the per-job shuffle-bytes
	// accounting the transfer gate and the multiply strategy comparison
	// are built from. On a cluster running concurrent jobs the deltas are
	// wall-clock attributed (bytes moved by overlapping jobs land in
	// whichever job's window they occur), exactly like per-job HDFS
	// counters scraped from a shared namenode.
	BytesRead        int64
	BytesWritten     int64
	TransferredBytes int64
	// Counters aggregates TaskContext.IncrCounter values from successful
	// attempts.
	Counters map[string]int64
	Elapsed  time.Duration
	// SlotWait is the cumulative time this job's task attempts spent
	// waiting for a cluster slot — the queueing cost of sharing the
	// cluster with concurrent jobs (zero on an idle cluster).
	SlotWait time.Duration
	// SlotGrants counts the slots granted to this job's attempts.
	SlotGrants int64
}

// FailureInjector decides whether a given task attempt should fail
// artificially; used by tests and the Section 7.4 failure-recovery
// experiment. isMap distinguishes map from reduce attempts.
type FailureInjector func(job string, taskID, attempt int, isMap bool) error

// Cluster executes jobs on a fixed pool of simulated nodes.
type Cluster struct {
	FS *dfs.FS
	// Slots is the number of task slots executing concurrently — the
	// paper's m0 compute nodes.
	Slots int
	// LaunchOverhead is charged (as recorded time, and optionally slept)
	// once per job, reproducing Hadoop's constant job-launch latency.
	LaunchOverhead time.Duration
	// SleepOnLaunch makes LaunchOverhead real wall-clock time; tests leave
	// it false so overhead is only accounted, not suffered.
	SleepOnLaunch bool
	// DefaultMaxAttempts bounds task retries (Hadoop's
	// mapred.map.max.attempts, default 4).
	DefaultMaxAttempts int
	// InjectFailure, when non-nil, is consulted before each task attempt.
	InjectFailure FailureInjector
	// Faults, when non-nil, injects node-level failures (crashes,
	// restarts, stragglers, shuffle-fetch errors); see FaultPlane.
	Faults FaultPlane
	// Speculative enables Hadoop-style speculative execution: when idle
	// slots exist, a backup attempt is launched for any task that has run
	// longer than SpeculativeSlack and longer than SpeculativeRatio times
	// the median completed-task time. The first attempt to finish wins;
	// the loser's output and counters are discarded.
	Speculative      bool
	SpeculativeSlack time.Duration
	SpeculativeRatio float64
	// Tracer, when non-nil, records one span per job, per map/reduce
	// phase, and per task attempt (on the executing node's track). All
	// instrumented paths are no-ops when it is nil.
	Tracer *obs.Tracer
	// Metrics, when non-nil, accumulates engine counters and task/job
	// latency histograms.
	Metrics *obs.Registry
	// MaxConcurrentJobs, when > 0, caps how many jobs may hold task
	// slots at once; excess jobs queue whole (highest priority first).
	// Set before the first Run, like Slots.
	MaxConcurrentJobs int
	// SlotQuota, when > 0, caps how many slots one job may hold while
	// other jobs are waiting (work-conserving: a lone job still uses the
	// whole cluster). Set before the first Run.
	SlotQuota int

	mu       sync.Mutex
	jobsRun  int
	failures int

	schedOnce sync.Once
	sched     *SlotPool
}

// NewCluster builds a cluster with the given slot count over fs.
func NewCluster(fs *dfs.FS, slots int) *Cluster {
	if slots < 1 {
		slots = 1
	}
	return &Cluster{FS: fs, Slots: slots, DefaultMaxAttempts: 4}
}

// JobsRun returns how many jobs the cluster has executed.
func (c *Cluster) JobsRun() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jobsRun
}

// TaskFailures returns the cumulative number of failed task attempts.
func (c *Cluster) TaskFailures() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failures
}

// Scheduler returns the cluster's shared slot pool, creating it on first
// use from the cluster's Slots, MaxConcurrentJobs, SlotQuota, and Metrics
// (all of which must therefore be configured before the first job runs).
// Every task attempt of every job executes while holding one of its
// slots, so concurrently running jobs share the same m0 — the Hadoop
// JobTracker contract the serving layer depends on.
func (c *Cluster) Scheduler() *SlotPool {
	c.schedOnce.Do(func() {
		c.sched = newSlotPool(c.Slots, c.MaxConcurrentJobs, c.SlotQuota, c.Metrics)
	})
	return c.sched
}

// emitBuffer is a private Emitter accumulating pairs in order.
type emitBuffer struct {
	kvs []KV
}

func (b *emitBuffer) Emit(key string, value []byte) {
	v := append([]byte(nil), value...)
	b.kvs = append(b.kvs, KV{Key: key, Value: v})
}

// jobSpan opens the trace span for one job: a child of the job's
// TraceParent when set, otherwise a root span on the cluster tracer.
// Returns nil (a no-op span) when neither is configured.
func (c *Cluster) jobSpan(job *Job) *obs.Span {
	if job.TraceParent != nil {
		//mrlint:allow obsnames -- the job name is the span's identity; cardinality is the pipeline's fixed job set
		return job.TraceParent.Child(job.Name, obs.KindJob)
	}
	//mrlint:allow obsnames -- the job name is the span's identity; cardinality is the pipeline's fixed job set
	return c.Tracer.StartSpan(job.Name, obs.KindJob)
}

// Run executes the job to completion and returns its result.
func (c *Cluster) Run(job *Job) (*JobResult, error) {
	return c.RunCtx(context.Background(), job)
}

// cancelErr wraps a context error so callers can match either the engine's
// ErrJobCanceled or the underlying context sentinel.
func cancelErr(jobName string, cause error) error {
	return fmt.Errorf("mapreduce: job %s: %w (%w)", jobName, ErrJobCanceled, cause)
}

// RunCtx executes the job to completion unless ctx is canceled first.
// Cancellation is cooperative, in the Hadoop kill-job style: it is
// observed before the job starts, between the map, shuffle, and reduce
// phases, and between task launches inside a phase — a task attempt that
// has already started runs to completion (its output is simply discarded),
// exactly like a task JVM that has not yet processed its kill signal.
func (c *Cluster) RunCtx(ctx context.Context, job *Job) (*JobResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, cancelErr(job.Name, err)
	}
	//mrlint:allow determinism(time.Now) -- job wall time feeds JobResult timings and spans; task outputs are clock-free
	start := time.Now()
	jobSpan := c.jobSpan(job)
	var fsBefore dfs.Stats
	if c.FS != nil {
		fsBefore = c.FS.Stats()
	}
	if c.SleepOnLaunch && c.LaunchOverhead > 0 {
		time.Sleep(c.LaunchOverhead)
	}
	maxAttempts := job.MaxAttempt
	if maxAttempts <= 0 {
		maxAttempts = c.DefaultMaxAttempts
	}
	if maxAttempts <= 0 {
		maxAttempts = 1
	}
	part := job.Partition
	if part == nil {
		part = defaultPartitioner
	}
	sj := c.Scheduler().Register(job.Name, job.Priority)
	defer sj.Close()

	// ---- Map phase ----
	// mapAttempt is shared by the initial map phase and any lost-output
	// recovery waves, so a re-executed map runs exactly the original code.
	mapAttempt := func(i, attempt, node int) (any, map[string]int64, error) {
		if c.InjectFailure != nil {
			if ferr := c.InjectFailure(job.Name, i, attempt, true); ferr != nil {
				return nil, nil, ferr
			}
		}
		tctx := &TaskContext{JobName: job.Name, TaskID: i, Attempt: attempt, Node: node, FS: c.FS, Config: job.Config}
		buf := &emitBuffer{}
		if err := job.Map(tctx, job.Splits[i], buf); err != nil {
			return nil, nil, err
		}
		kvs := buf.kvs
		if job.Combine != nil {
			kvs = combineLocal(kvs, job.Combine)
		}
		return kvs, tctx.counters, nil
	}
	mapSpan := jobSpan.Child("map", obs.KindPhase)
	mapPhase, err := c.runPhaseLocal(ctx, sj, len(job.Splits), maxAttempts, job.Prefer, job.StrictLocality, mapSpan, "map", mapAttempt)
	mapSpan.Finish()
	if err != nil {
		jobSpan.SetLabel("error", err.Error())
		jobSpan.Finish()
		return nil, fmt.Errorf("mapreduce: job %s map phase: %w", job.Name, err)
	}
	var lostOutputs, fetchRetries int
	if job.Reduce != nil && job.NumReduce > 0 && c.Faults != nil {
		lostOutputs, fetchRetries, err = c.recoverMapOutputs(ctx, sj, job, maxAttempts, mapAttempt, mapPhase, jobSpan)
		if err != nil {
			jobSpan.SetLabel("error", err.Error())
			jobSpan.Finish()
			return nil, fmt.Errorf("mapreduce: job %s map recovery: %w", job.Name, err)
		}
	}
	mapOutputs := make([][]KV, len(job.Splits))
	for i, r := range mapPhase.results {
		if r != nil {
			mapOutputs[i] = r.([]KV)
		}
	}
	totalFailures := mapPhase.failures

	res := &JobResult{
		Job:              job.Name,
		MapTasks:         len(job.Splits),
		Counters:         mapPhase.counters,
		SpeculativeTasks: mapPhase.speculative,
		LostMapOutputs:   lostOutputs,
		FetchRetries:     fetchRetries,
	}

	if job.Reduce == nil || job.NumReduce <= 0 {
		// Map-only job: output is the concatenated, sorted map output.
		var out []KV
		for _, kvs := range mapOutputs {
			out = append(out, kvs...)
		}
		sortKVs(out)
		res.Output = out
		res.TaskFailures = totalFailures
		res.Elapsed = time.Since(start) + c.LaunchOverhead
		res.SlotWait = sj.WaitTotal()
		res.SlotGrants = sj.Grants()
		c.finishJob(totalFailures)
		c.finishJobObs(jobSpan, res, fsBefore)
		return res, nil
	}

	// ---- Shuffle ----
	if cerr := ctx.Err(); cerr != nil {
		err = cancelErr(job.Name, cerr)
		jobSpan.SetLabel("error", err.Error())
		jobSpan.Finish()
		return nil, err
	}
	// Partition map output; within each partition group values by key.
	// Iterating map tasks in index order keeps grouped values in a
	// deterministic order independent of scheduling.
	shuffleSpan := jobSpan.Child("shuffle", obs.KindPhase)
	buckets := make([]map[string][][]byte, job.NumReduce)
	for i := range buckets {
		buckets[i] = make(map[string][][]byte)
	}
	shuffled := 0
	for _, kvs := range mapOutputs {
		for _, kv := range kvs {
			p := part(kv.Key, job.NumReduce)
			if p < 0 || p >= job.NumReduce {
				return nil, fmt.Errorf("mapreduce: job %s: partitioner returned %d for %d reducers", job.Name, p, job.NumReduce)
			}
			buckets[p][kv.Key] = append(buckets[p][kv.Key], kv.Value)
			shuffled++
		}
	}
	res.ShuffledKVs = shuffled
	shuffleSpan.SetAttr("shuffled_kvs", int64(shuffled))
	shuffleSpan.Finish()

	// ---- Reduce phase ----
	redSpan := jobSpan.Child("reduce", obs.KindPhase)
	redPhase, err := c.runPhaseLocal(ctx, sj, job.NumReduce, maxAttempts, job.PreferReduce, job.StrictLocality, redSpan, "reduce", func(r, attempt, node int) (any, map[string]int64, error) {
		if c.InjectFailure != nil {
			if ferr := c.InjectFailure(job.Name, r, attempt, false); ferr != nil {
				return nil, nil, ferr
			}
		}
		ctx := &TaskContext{JobName: job.Name, TaskID: r, Attempt: attempt, Node: node, FS: c.FS, Config: job.Config}
		keys := make([]string, 0, len(buckets[r]))
		for k := range buckets[r] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf := &emitBuffer{}
		for _, k := range keys {
			if err := job.Reduce(ctx, k, buckets[r][k], buf); err != nil {
				return nil, nil, err
			}
		}
		return buf.kvs, ctx.counters, nil
	})
	redSpan.Finish()
	if err != nil {
		jobSpan.SetLabel("error", err.Error())
		jobSpan.Finish()
		return nil, fmt.Errorf("mapreduce: job %s reduce phase: %w", job.Name, err)
	}
	totalFailures += redPhase.failures
	res.SpeculativeTasks += redPhase.speculative
	for k, v := range redPhase.counters {
		res.Counters[k] += v
	}

	var out []KV
	for _, r := range redPhase.results {
		if r != nil {
			out = append(out, r.([]KV)...)
		}
	}
	sortKVs(out)
	res.Output = out
	res.ReduceTasks = job.NumReduce
	res.TaskFailures = totalFailures
	res.Elapsed = time.Since(start) + c.LaunchOverhead
	res.SlotWait = sj.WaitTotal()
	res.SlotGrants = sj.Grants()
	c.finishJob(totalFailures)
	c.finishJobObs(jobSpan, res, fsBefore)
	return res, nil
}

func (c *Cluster) finishJob(failures int) {
	c.mu.Lock()
	c.jobsRun++
	c.failures += failures
	c.mu.Unlock()
}

// finishJobObs closes the job span with the run's summary attributes —
// including the job's DFS byte deltas, so every trace carries the byte
// attribution the paper's tables are built from — and feeds the metrics
// registry.
func (c *Cluster) finishJobObs(jobSpan *obs.Span, res *JobResult, fsBefore dfs.Stats) {
	if c.FS != nil {
		after := c.FS.Stats()
		res.BytesRead = after.BytesRead - fsBefore.BytesRead
		res.BytesWritten = after.BytesWritten - fsBefore.BytesWritten
		res.TransferredBytes = after.BytesTransferred - fsBefore.BytesTransferred
	}
	if jobSpan != nil {
		jobSpan.SetAttr("map_tasks", int64(res.MapTasks))
		jobSpan.SetAttr("reduce_tasks", int64(res.ReduceTasks))
		jobSpan.SetAttr("task.failures", int64(res.TaskFailures))
		jobSpan.SetAttr("task.speculative", int64(res.SpeculativeTasks))
		if res.LostMapOutputs > 0 {
			jobSpan.SetAttr("task.lost_map_outputs", int64(res.LostMapOutputs))
		}
		if res.FetchRetries > 0 {
			jobSpan.SetAttr("task.fetch_retries", int64(res.FetchRetries))
		}
		jobSpan.SetAttr("shuffled_kvs", int64(res.ShuffledKVs))
		jobSpan.SetAttr("launch_overhead_us", c.LaunchOverhead.Microseconds())
		jobSpan.SetAttr("slot_wait_us", res.SlotWait.Microseconds())
		jobSpan.SetAttr("slot_grants", res.SlotGrants)
		if c.FS != nil {
			jobSpan.SetAttr("dfs.bytes_read", res.BytesRead)
			jobSpan.SetAttr("dfs.bytes_written", res.BytesWritten)
			jobSpan.SetAttr("dfs.bytes_transferred", res.TransferredBytes)
			jobSpan.SetAttr("dfs.files_created", c.FS.Stats().FilesCreated-fsBefore.FilesCreated)
		}
		jobSpan.Finish()
	}
	if c.Metrics != nil {
		c.Metrics.Counter("mapreduce.jobs").Add(1)
		c.Metrics.Counter("mapreduce.map_tasks").Add(int64(res.MapTasks))
		c.Metrics.Counter("mapreduce.reduce_tasks").Add(int64(res.ReduceTasks))
		c.Metrics.Counter("mapreduce.task_failures").Add(int64(res.TaskFailures))
		c.Metrics.Counter("mapreduce.speculative_tasks").Add(int64(res.SpeculativeTasks))
		c.Metrics.Counter("mapreduce.shuffled_kvs").Add(int64(res.ShuffledKVs))
		c.Metrics.Histogram("mapreduce.job_latency").Observe(res.Elapsed)
		c.Metrics.Histogram("mapreduce.job_slot_wait").Observe(res.SlotWait)
	}
}

// taskFn computes one task attempt, returning its published result and
// its counters.
type taskFn func(task, attempt, node int) (any, map[string]int64, error)

// deferBudgetPerSlot bounds how many scheduling opportunities a task may
// skip for locality before any worker runs it (Hadoop's delay-scheduling
// timeout).
const deferBudgetPerSlot = 8

// phaseResult carries one phase's outcome. nodes, epochs, and perTask
// record, for each task, which node incarnation produced the published
// result and that attempt's counters — what lost-output recovery needs to
// detect a dead output and retire its accounting.
type phaseResult struct {
	results     []any
	counters    map[string]int64
	perTask     []map[string]int64
	nodes       []int
	epochs      []int64
	failures    int
	speculative int
}

// runPhaseLocal executes n tasks with per-task retry (up to maxAttempts
// failures), optional locality preference, and optional speculative
// execution. Every task attempt executes while holding a slot acquired
// from the cluster's shared SlotPool through sj, so concurrent jobs on
// the same cluster never exceed Slots executing attempts in total. Only
// the first successful attempt of a task publishes its result and
// counters. When phaseSpan is non-nil, every attempt records a task span
// (named "<label>:<task>") on its node's track. Cancellation of ctx stops
// workers from launching further task attempts; attempts already running
// finish in the background without touching the phase result.
//
// Pending tries sit in one FIFO list under the phase lock. An idle
// worker claims a try and only then acquires a slot, so a deferral never
// touches the SlotPool; a worker with nothing to claim parks on the wake
// channel, closed and replaced whenever an enqueue or an attempt end
// leaves tries pending.
func (c *Cluster) runPhaseLocal(ctx context.Context, sj *SchedJob, n, maxAttempts int, prefer [][]int, strict bool, phaseSpan *obs.Span, label string, run taskFn) (*phaseResult, error) {
	pr := &phaseResult{
		results:  make([]any, n),
		counters: map[string]int64{},
		perTask:  make([]map[string]int64, n),
		nodes:    make([]int, n),
		epochs:   make([]int64, n),
	}
	if n == 0 {
		return pr, nil
	}
	type try struct{ id, attempt, deferred int }
	deferBudget := deferBudgetPerSlot * c.Slots
	preferred := func(task int) []int {
		if task < len(prefer) {
			return prefer[task]
		}
		return nil
	}
	isPreferred := func(task, node int) bool {
		nodes := preferred(task)
		return len(nodes) == 0 || slices.Contains(nodes, node)
	}
	var (
		mu        sync.Mutex
		pending   = make([]try, n) // FIFO of unclaimed tries
		inflight  int              // claimed tries whose attempt has not ended
		idle      int              // workers parked on wake
		wake      = make(chan struct{})
		done      = make([]bool, n)
		running   = make([]int, n)
		started   = make([]time.Time, n)
		failCount = make([]int, n)
		specDone  = make([]bool, n) // one backup attempt per task at most
		remaining = n
		durations []float64
		fatal     error
		closed    bool // phase finished; stragglers must not touch pr
	)
	for i := range pending {
		pending[i].id = i
	}
	// notify wakes every parked worker to re-scan pending, unless nothing
	// is pending to claim. Callers hold mu.
	notify := func() {
		if len(pending) == 0 {
			return
		}
		close(wake)
		wake = make(chan struct{})
		idle = 0
	}
	// claim takes the first pending try that prefers node or, failing
	// that, the first whose deferral budget is spent. Every try passed
	// over counts one deferral: one skipped scheduling opportunity, the
	// unit of Hadoop's delay scheduling. Callers hold mu.
	claim := func(node int) (try, bool) {
		pick, local := -1, false
		for i := 0; i < len(pending) && !local; i++ {
			t := pending[i]
			switch {
			case done[t.id]: // a faster attempt already won
				pending = append(pending[:i], pending[i+1:]...)
				i--
			case isPreferred(t.id, node):
				pick, local = i, true
			case pick < 0 && !(t.deferred < deferBudget || strict && c.strictSatisfiable(preferred(t.id))):
				pick = i
			}
		}
		passed := pending
		if pick >= 0 {
			passed = pending[:pick]
		}
		for i := range passed {
			passed[i].deferred++
		}
		if pick < 0 {
			return try{}, false
		}
		t := pending[pick]
		pending = append(pending[:pick], pending[pick+1:]...)
		return t, true
	}
	stop := make(chan struct{})
	var stopOnce sync.Once
	closeStop := func() { stopOnce.Do(func() { close(stop) }) }

	for s := 0; s < c.Slots; s++ {
		go func(node int) {
			for {
				// A dead node claims nothing, like a JobTracker that stops
				// granting slots on a lost TaskTracker; its worker waits
				// for the next wake to look again.
				alive := c.Faults == nil || c.Faults.NodeAlive(node)
				mu.Lock()
				if closed || fatal != nil {
					mu.Unlock()
					return
				}
				var t try
				ok := false
				if alive {
					t, ok = claim(node)
				}
				switch {
				case ok:
					inflight++
				case inflight == 0 && len(pending) > 0 && idle == c.Slots-1:
					// Only deferred tries are left, no attempt will end to
					// wake anyone, and every other worker is parked: wake
					// them all for another round of scans. A round passes
					// each try over once per worker, so the deferral budget
					// (under StrictLocality, the preferred worker's claim)
					// ends the rounds, and one worker that scans fast cannot
					// spend the budget while the others wait to run; the
					// wake also lets a worker on a revived node look again.
					notify()
					if alive {
						mu.Unlock()
						runtime.Gosched()
						continue
					}
					idle++
				default:
					idle++
				}
				parked := wake
				mu.Unlock()
				if !ok {
					select {
					case <-parked:
						continue
					case <-stop:
					case <-ctx.Done():
					}
					return
				}
				// Every attempt executes while holding a cluster-wide
				// slot, so concurrent jobs on one cluster never exceed
				// Slots executing attempts in total. The worker's node
				// identity stays fixed (as in the single-job engine);
				// the slot is purely the capacity token.
				slot, _, ok := sj.Acquire(ctx, stop)
				if !ok {
					// Phase over or job canceled while queued.
					return
				}
				mu.Lock()
				if done[t.id] || fatal != nil {
					inflight--
					notify()
					mu.Unlock()
					sj.Release(slot)
					continue
				}
				running[t.id]++
				if running[t.id] == 1 {
					started[t.id] = time.Now() //mrlint:allow determinism(time.Now) -- speculative-execution timing only; which attempt wins never changes task output
				}
				mu.Unlock()

				var taskSpan *obs.Span
				if phaseSpan != nil {
					//mrlint:allow obsnames -- per-task trace spans carry the task id; bounded by the phase's task count
					taskSpan = phaseSpan.Child(label+":"+strconv.Itoa(t.id), obs.KindTask)
					taskSpan.SetTrack(node)
					taskSpan.SetAttr("attempt", int64(t.attempt))
					if t.attempt >= maxAttempts {
						taskSpan.SetLabel("speculative", "true")
					}
				}
				// The node's epoch is read before AttemptStart so a
				// kill fired by this very attempt's start is seen as
				// an epoch change and fails the attempt.
				var fpEpoch int64
				var fpDelay time.Duration
				var fpErr error
				if c.Faults != nil {
					fpEpoch = c.Faults.NodeEpoch(node)
					fpDelay, fpErr = c.Faults.AttemptStart(sj.name, t.id, t.attempt, node, label == "map")
				}
				begin := time.Now() //mrlint:allow determinism(time.Now) -- per-task duration for speculation medians and spans; not part of task output
				var result any
				var counters map[string]int64
				var err error
				if fpErr != nil {
					err = fpErr
				} else {
					if fpDelay > 0 {
						time.Sleep(fpDelay)
					}
					result, counters, err = runSafely(func() (any, map[string]int64, error) {
						return run(t.id, t.attempt, node)
					})
					if err == nil && c.Faults != nil && (!c.Faults.NodeAlive(node) || c.Faults.NodeEpoch(node) != fpEpoch) {
						err = fmt.Errorf("%s task %d attempt %d on node %d: %w", label, t.id, t.attempt, node, ErrNodeLost)
					}
				}
				if taskSpan != nil {
					if err != nil {
						taskSpan.SetLabel("error", err.Error())
					}
					taskSpan.Finish()
				}
				sj.Release(slot)
				if c.Metrics != nil {
					c.Metrics.Histogram("mapreduce.task_latency").Observe(time.Since(begin))
				}

				mu.Lock()
				running[t.id]--
				inflight--
				if closed {
					mu.Unlock() // phase already over; abandoned attempt
					return
				}
				switch {
				case done[t.id]: // a faster attempt already won
				case err != nil:
					pr.failures++
					failCount[t.id]++
					if failCount[t.id] < maxAttempts {
						pending = append(pending, try{id: t.id, attempt: t.attempt + 1})
					} else if running[t.id] == 0 && fatal == nil {
						fatal = fmt.Errorf("task %d attempt %d: %v: %w", t.id, t.attempt, err, ErrTooManyFailures)
						closeStop()
					}
				default:
					done[t.id] = true
					pr.results[t.id] = result
					pr.perTask[t.id] = counters
					pr.nodes[t.id] = node
					pr.epochs[t.id] = fpEpoch
					for k, v := range counters {
						pr.counters[k] += v
					}
					durations = append(durations, time.Since(begin).Seconds())
					remaining--
					if remaining == 0 {
						closeStop()
					}
				}
				notify()
				mu.Unlock()
			}
		}(s % max(1, c.nodesForScheduling()))
	}

	// Speculative monitor: duplicate stragglers onto idle capacity.
	if c.Speculative {
		go func() {
			ticker := time.NewTicker(2 * time.Millisecond)
			defer ticker.Stop()
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
					mu.Lock()
					med := median(durations)
					ratio := c.SpeculativeRatio
					if ratio <= 1 {
						ratio = 2
					}
					for i := 0; i < n; i++ {
						if done[i] || specDone[i] || running[i] != 1 {
							continue
						}
						el := time.Since(started[i])
						if el < c.SpeculativeSlack {
							continue
						}
						if med > 0 && el.Seconds() < ratio*med {
							continue
						}
						if med == 0 && len(durations) == 0 && c.SpeculativeSlack <= 0 {
							continue
						}
						specDone[i] = true
						pr.speculative++
						pending = append(pending, try{id: i, attempt: maxAttempts}) // distinct attempt id
						notify()
					}
					mu.Unlock()
				}
			}
		}()
	}

	// Wait for the phase outcome (all tasks done, a fatal failure, or
	// cancellation) — not for every attempt goroutine: a superseded
	// straggler keeps running in the background like a Hadoop attempt
	// awaiting its kill, but the `closed` flag bars it from touching the
	// phase result.
	select {
	case <-stop:
	case <-ctx.Done():
		closeStop()
	}
	mu.Lock()
	closed = true
	f := fatal
	incomplete := remaining > 0
	mu.Unlock()
	if f != nil {
		return pr, f
	}
	if cerr := ctx.Err(); cerr != nil && incomplete {
		return pr, fmt.Errorf("%w (%w)", ErrJobCanceled, cerr)
	}
	return pr, nil
}

// maxFetchTries bounds how many times one shuffle fetch of a map output
// is retried before the output is declared lost; fetchBackoff is the base
// of the linear backoff between retries (Hadoop's reduce-copy backoff,
// scaled to simulation time).
const (
	maxFetchTries = 4
	fetchBackoff  = 50 * time.Microsecond
)

// recoverMapOutputs reproduces Hadoop's lost-map-output handling. Before
// the shuffle consumes map outputs, each output is "fetched" from the node
// that produced it: transient fetch errors retry with bounded backoff, and
// an output whose node died or restarted since the attempt ran (its epoch
// changed — the output files died with the old incarnation) is declared
// lost and its map task re-executed on a live node. Re-execution proceeds
// in waves — a node can die *during* recovery and lose freshly recovered
// outputs — until every output fetches cleanly. Lost outputs are charged
// as task failures, the way Hadoop charges re-executed maps to the job,
// and the lost attempt's counters are retired so successful-attempt
// accounting still holds. mp is updated in place.
func (c *Cluster) recoverMapOutputs(ctx context.Context, sj *SchedJob, job *Job, maxAttempts int, mapAttempt taskFn, mp *phaseResult, jobSpan *obs.Span) (lostTotal, retries int, err error) {
	n := len(job.Splits)
	// Each wave re-executes at least one lost output and plan-driven
	// injectors are finite, so waves terminate; the cap only guards
	// against a FaultPlane that kills nodes unboundedly.
	maxWaves := n + 4
	for wave := 0; ; wave++ {
		if wave > maxWaves {
			return lostTotal, retries, fmt.Errorf("map output recovery did not converge after %d waves", wave)
		}
		if cerr := ctx.Err(); cerr != nil {
			return lostTotal, retries, cancelErr(job.Name, cerr)
		}
		var lost []int
		for i := 0; i < n; i++ {
			node := mp.nodes[i]
			var ferr error
			for try := 0; try < maxFetchTries; try++ {
				ferr = c.Faults.FetchError(job.Name, i, node, try)
				if ferr == nil {
					break
				}
				retries++
				time.Sleep(time.Duration(try+1) * fetchBackoff)
			}
			if ferr == nil && c.Faults.NodeAlive(node) && c.Faults.NodeEpoch(node) == mp.epochs[i] {
				continue
			}
			lost = append(lost, i)
		}
		if len(lost) == 0 {
			if c.Metrics != nil && retries > 0 {
				c.Metrics.Counter("mapreduce.fetch_retries").Add(int64(retries))
			}
			return lostTotal, retries, nil
		}
		lostTotal += len(lost)
		if c.Metrics != nil {
			c.Metrics.Counter("mapreduce.lost_map_outputs").Add(int64(len(lost)))
		}
		recSpan := jobSpan.Child("map_recovery", obs.KindPhase)
		recSpan.SetAttr("lost_outputs", int64(len(lost)))
		var prefer [][]int
		if job.Prefer != nil {
			prefer = make([][]int, len(lost))
			for j, id := range lost {
				if id < len(job.Prefer) {
					prefer[j] = job.Prefer[id]
				}
			}
		}
		sub, rerr := c.runPhaseLocal(ctx, sj, len(lost), maxAttempts, prefer, job.StrictLocality, recSpan, "map", func(j, attempt, node int) (any, map[string]int64, error) {
			return mapAttempt(lost[j], attempt, node)
		})
		recSpan.Finish()
		if rerr != nil {
			return lostTotal, retries, rerr
		}
		mp.failures += len(lost) + sub.failures
		mp.speculative += sub.speculative
		for j, id := range lost {
			for k, v := range mp.perTask[id] {
				mp.counters[k] -= v
			}
			for k, v := range sub.perTask[j] {
				mp.counters[k] += v
			}
			mp.perTask[id] = sub.perTask[j]
			mp.results[id] = sub.results[j]
			mp.nodes[id] = sub.nodes[j]
			mp.epochs[id] = sub.epochs[j]
		}
	}
}

// combineLocal applies the combiner to one map task's output: values are
// grouped by key (preserving first-occurrence order) and collapsed to a
// single pair per key.
func combineLocal(kvs []KV, combine CombineFunc) []KV {
	groups := map[string][][]byte{}
	var order []string
	for _, kv := range kvs {
		if _, ok := groups[kv.Key]; !ok {
			order = append(order, kv.Key)
		}
		groups[kv.Key] = append(groups[kv.Key], kv.Value)
	}
	out := make([]KV, 0, len(order))
	for _, k := range order {
		out = append(out, KV{Key: k, Value: combine(k, groups[k])})
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}

// strictSatisfiable reports whether a strict-locality preference can
// still be honored: some preferred node maps to a live worker. When none
// does, the preference is waived so strict jobs fall back like an
// expired delay budget instead of deadlocking.
func (c *Cluster) strictSatisfiable(nodes []int) bool {
	workers := max(1, c.nodesForScheduling())
	if c.Slots < workers {
		workers = c.Slots
	}
	for _, p := range nodes {
		if p < 0 || p >= workers {
			continue
		}
		if c.Faults != nil && !c.Faults.NodeAlive(p) {
			continue
		}
		return true
	}
	return false
}

// nodesForScheduling maps slots onto DFS datanodes for locality accounting.
func (c *Cluster) nodesForScheduling() int {
	if c.FS != nil {
		return c.FS.Nodes()
	}
	return c.Slots
}

// runSafely converts a panic inside task code into a task error so the
// fault-tolerance machinery treats it as a failed attempt, the way Hadoop
// treats a crashed task JVM.
func runSafely(f func() (any, map[string]int64, error)) (result any, counters map[string]int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			result, counters = nil, nil
			err = fmt.Errorf("task panic: %v", r)
		}
	}()
	return f()
}

func sortKVs(kvs []KV) {
	sort.SliceStable(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
}

// Pipeline runs jobs sequentially, as the paper's Figure 2 chain of
// MapReduce jobs, stopping at the first error.
func (c *Cluster) Pipeline(jobs []*Job) ([]*JobResult, error) {
	results := make([]*JobResult, 0, len(jobs))
	for _, j := range jobs {
		r, err := c.Run(j)
		if err != nil {
			return results, err
		}
		results = append(results, r)
	}
	return results, nil
}

// ControlSplits builds the paper's Section 5.1 control inputs: m0 splits,
// the i-th containing just the integer i, so each mapper learns its role
// from its input file.
func ControlSplits(m0 int) []InputSplit {
	splits := make([]InputSplit, m0)
	for i := range splits {
		splits[i] = InputSplit{ID: i, Path: fmt.Sprintf("Root/MapInput/A.%d", i), Data: []byte(fmt.Sprintf("%d", i))}
	}
	return splits
}
