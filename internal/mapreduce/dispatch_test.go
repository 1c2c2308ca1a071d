package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/dfs"
)

// placement is one recorded task attempt.
type placement struct {
	isMap               bool
	task, attempt, node int
}

// recordingJob is a word count over maps two-word documents whose map and
// reduce functions record the node of every attempt they run.
func recordingJob(mu *sync.Mutex, seen *[]placement, maps int) *Job {
	docs := make([]string, maps)
	for i := range docs {
		docs[i] = fmt.Sprintf("a%d b%d", i, i)
	}
	job := wordCountJob(docs, 4)
	innerMap, innerReduce := job.Map, job.Reduce
	record := func(ctx *TaskContext, isMap bool) {
		mu.Lock()
		*seen = append(*seen, placement{isMap, ctx.TaskID, ctx.Attempt, ctx.Node})
		mu.Unlock()
	}
	job.Map = func(ctx *TaskContext, split InputSplit, emit Emitter) error {
		record(ctx, true)
		return innerMap(ctx, split, emit)
	}
	job.Reduce = func(ctx *TaskContext, key string, values [][]byte, emit Emitter) error {
		record(ctx, false)
		return innerReduce(ctx, key, values, emit)
	}
	return job
}

// Every task prefers a dead node: the preference can never be honored,
// so each try spills to a live worker once its deferral budget is spent,
// with or without StrictLocality, and no attempt runs on the dead node.
func TestEveryPreferredNodeDead(t *testing.T) {
	for _, strict := range []bool{false, true} {
		c := NewCluster(dfs.New(4, 2), 4)
		plane := newFakePlane(4)
		plane.killLocked(2)
		c.Faults = plane
		var mu sync.Mutex
		var seen []placement
		job := recordingJob(&mu, &seen, 8)
		job.Prefer = preferTable(8, func(int) []int { return []int{2} })
		job.PreferReduce = job.Prefer
		job.StrictLocality = strict
		res, err := c.Run(job)
		if err != nil {
			t.Fatalf("strict=%v: %v", strict, err)
		}
		if len(res.Output) != 16 || res.TaskFailures != 0 {
			t.Fatalf("strict=%v: %d keys, %d failures; want 16, 0", strict, len(res.Output), res.TaskFailures)
		}
		for _, p := range seen {
			if p.node == 2 {
				t.Fatalf("strict=%v: %+v ran on the dead node", strict, p)
			}
		}
	}
}

// Under StrictLocality with every preferred node live, no attempt runs
// anywhere but on a preferred node. Every map task prefers node 0, so the
// later tries wait through far more skipped scheduling opportunities than
// the deferral budget allows, and node 3 prefers nothing at all.
func TestStrictLocalityNeverSpills(t *testing.T) {
	preferred := func(p placement) int {
		if p.isMap {
			return 0
		}
		return p.task % 3
	}
	for run := 0; run < 5; run++ {
		c := NewCluster(dfs.New(4, 2), 4)
		var mu sync.Mutex
		var seen []placement
		job := recordingJob(&mu, &seen, 48)
		job.Prefer = preferTable(48, func(int) []int { return []int{0} })
		job.PreferReduce = preferTable(job.NumReduce, func(r int) []int { return []int{r % 3} })
		job.StrictLocality = true
		// A short attempt lets the parked workers scan between attempts.
		inner := job.Map
		job.Map = func(ctx *TaskContext, split InputSplit, emit Emitter) error {
			time.Sleep(100 * time.Microsecond)
			return inner(ctx, split, emit)
		}
		if _, err := c.Run(job); err != nil {
			t.Fatal(err)
		}
		for _, p := range seen {
			if p.node != preferred(p) {
				t.Fatalf("run %d: %+v ran off its preferred node %d", run, p, preferred(p))
			}
		}
	}
}

// Fifty phases and one job canceled mid-phase leave no goroutine behind
// once the canceled job's straggler finishes: workers, the speculative
// monitor and queued slot acquires all exit with their phase.
func TestPhasesLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	c := NewCluster(dfs.New(4, 2), 4)
	c.Speculative = true
	c.SpeculativeSlack = time.Hour // the monitor runs but never fires
	// Twenty-five jobs of a map and a reduce phase each.
	for i := 0; i < 25; i++ {
		if _, err := c.Run(wordCountJob([]string{"a b", "b c", "c d"}, 2)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{})
	_, err := c.RunCtx(ctx, &Job{
		Name:   "cancel-mid-phase",
		Splits: ControlSplits(16),
		Map: func(tc *TaskContext, s InputSplit, e Emitter) error {
			if s.ID == 0 {
				cancel()
				<-release
			}
			return nil
		},
	})
	if !errors.Is(err, ErrJobCanceled) {
		t.Fatalf("err = %v, want ErrJobCanceled", err)
	}
	close(release)
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 5000 {
			t.Fatalf("%d goroutines after the phases ended, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// A retried try wakes the idle worker that can run it: the first attempt
// kills its node, the only preferred one, and the retry is enqueued with
// the other worker parked. The phase ends after exactly two attempts.
func TestRetryWakesIdleWorker(t *testing.T) {
	c := NewCluster(dfs.New(2, 1), 2)
	plane := newFakePlane(2)
	var attempts []placement
	plane.onAttempt = func(p *fakePlane, job string, task, attempt, node int, isMap bool) (time.Duration, error) {
		attempts = append(attempts, placement{isMap, task, attempt, node})
		if attempt == 0 {
			p.killLocked(node)
			return 0, errors.New("node crashed")
		}
		return 0, nil
	}
	c.Faults = plane
	res, err := c.Run(&Job{
		Name:           "retry-wake",
		Splits:         ControlSplits(1),
		Map:            func(*TaskContext, InputSplit, Emitter) error { return nil },
		Prefer:         [][]int{{0}},
		StrictLocality: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	plane.mu.Lock()
	defer plane.mu.Unlock()
	want := []placement{{true, 0, 0, 0}, {true, 0, 1, 1}}
	if len(attempts) != 2 || attempts[0] != want[0] || attempts[1] != want[1] || res.TaskFailures != 1 {
		t.Fatalf("attempts %+v, %d failures; want %+v, 1", attempts, res.TaskFailures, want)
	}
}

// A speculative backup wakes the idle worker: the first attempt blocks
// until the backup has run, so no attempt ends and nothing else is
// enqueued before the parked worker claims the backup.
func TestSpeculativeBackupWakesIdleWorker(t *testing.T) {
	c := NewCluster(dfs.New(2, 1), 2)
	c.Speculative = true
	c.SpeculativeSlack = time.Millisecond
	backupRan := make(chan struct{})
	var mu sync.Mutex
	var seen []placement
	res, err := c.Run(&Job{
		Name:   "backup-wake",
		Splits: ControlSplits(1),
		Map: func(ctx *TaskContext, s InputSplit, e Emitter) error {
			mu.Lock()
			seen = append(seen, placement{true, ctx.TaskID, ctx.Attempt, ctx.Node})
			mu.Unlock()
			if ctx.Attempt > 0 {
				close(backupRan)
				return nil
			}
			select { // a guard against a lost wake, not a timing bound
			case <-backupRan:
				return nil
			case <-time.After(time.Minute):
				return errors.New("backup never ran")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	sort.Slice(seen, func(i, j int) bool { return seen[i].attempt < seen[j].attempt })
	if len(seen) != 2 || seen[1].attempt != c.DefaultMaxAttempts || seen[0].node == seen[1].node ||
		res.SpeculativeTasks != 1 || res.TaskFailures != 0 {
		t.Fatalf("attempts %+v, %d backups, %d failures; want attempts 0 and %d on two nodes, 1, 0",
			seen, res.SpeculativeTasks, res.TaskFailures, c.DefaultMaxAttempts)
	}
}
