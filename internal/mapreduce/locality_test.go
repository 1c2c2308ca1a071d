package mapreduce

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dfs"
)

// localityJob reads one per-task input file from the DFS using the
// executing node, so non-local placements show up as transfer bytes.
func localityJob(fs *dfs.FS, tasks int, withPrefer bool) *Job {
	job := &Job{
		Name:   "locality",
		Splits: ControlSplits(tasks),
		Map: func(ctx *TaskContext, split InputSplit, emit Emitter) error {
			_, err := ctx.FS.ReadFrom(fmt.Sprintf("in/%d", split.ID), ctx.Node)
			return err
		},
	}
	if withPrefer {
		job.Prefer = preferTable(tasks, func(task int) []int {
			reps, err := fs.Replicas(fmt.Sprintf("in/%d", task))
			if err != nil {
				return nil
			}
			return reps
		})
	}
	return job
}

func runLocality(t *testing.T, withPrefer bool) int64 {
	t.Helper()
	const nodes, tasks = 8, 64
	fs := dfs.New(nodes, 1) // replication 1: exactly one local node per file
	for i := 0; i < tasks; i++ {
		fs.Write(fmt.Sprintf("in/%d", i), make([]byte, 10_000))
	}
	fs.ResetStats()
	c := NewCluster(fs, nodes)
	if _, err := c.Run(localityJob(fs, tasks, withPrefer)); err != nil {
		t.Fatal(err)
	}
	return fs.Stats().BytesTransferred
}

func TestDelaySchedulingImprovesLocality(t *testing.T) {
	withoutTotal, withTotal := int64(0), int64(0)
	// Average over a few runs; scheduling is nondeterministic.
	for trial := 0; trial < 3; trial++ {
		withoutTotal += runLocality(t, false)
		withTotal += runLocality(t, true)
	}
	// With delay scheduling almost every read should be local.
	if withTotal >= withoutTotal/2 {
		t.Fatalf("locality did not help: %d vs %d transferred bytes", withTotal, withoutTotal)
	}
}

func TestPreferEmptyAndUnknownIsHarmless(t *testing.T) {
	fs := dfs.New(2, 1)
	c := NewCluster(fs, 2)
	job := &Job{
		Name:   "prefer-nil",
		Splits: ControlSplits(4),
		Prefer: preferTable(4, func(task int) []int {
			if task%2 == 0 {
				return nil // unknown placement: run anywhere
			}
			return []int{99} // node that does not exist: deferral budget expires
		}),
		Map: func(ctx *TaskContext, split InputSplit, emit Emitter) error {
			emit.Emit(fmt.Sprintf("%d", split.ID), nil)
			return nil
		},
	}
	res, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 4 {
		t.Fatalf("output = %d", len(res.Output))
	}
}

func TestPreferWithRetries(t *testing.T) {
	fs := dfs.New(4, 2)
	for i := 0; i < 8; i++ {
		fs.Write(fmt.Sprintf("in/%d", i), []byte("x"))
	}
	c := NewCluster(fs, 4)
	var mu sync.Mutex
	first := map[int]bool{}
	c.InjectFailure = func(job string, task, attempt int, isMap bool) error {
		mu.Lock()
		defer mu.Unlock()
		if attempt == 0 && !first[task] {
			first[task] = true
			return fmt.Errorf("crash")
		}
		return nil
	}
	res, err := c.Run(localityJob(fs, 8, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.TaskFailures != 8 {
		t.Fatalf("failures = %d", res.TaskFailures)
	}
}
