package mapreduce

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dfs"
)

// PreferReduce pins reduce tasks the way Prefer pins map tasks: on an
// idle cluster, delay scheduling grants every reduce task its preferred
// node, so reads of files placed there stay local.
func TestPreferReducePinsReduceTasks(t *testing.T) {
	const nodes = 8
	fs := dfs.New(nodes, 1)
	c := NewCluster(fs, nodes)
	var mu sync.Mutex
	ran := make(map[int]int)
	job := &Job{
		Name:      "pin-reduce",
		Splits:    ControlSplits(nodes),
		NumReduce: nodes,
		Partition: func(key string, n int) int {
			var v int
			fmt.Sscanf(key, "%d", &v)
			return v % n
		},
		Prefer:       preferTable(nodes, func(task int) []int { return []int{task % nodes} }),
		PreferReduce: preferTable(nodes, func(task int) []int { return []int{task % nodes} }),
		Map: func(ctx *TaskContext, split InputSplit, emit Emitter) error {
			emit.Emit(fmt.Sprintf("%d", split.ID), nil)
			return nil
		},
		Reduce: func(ctx *TaskContext, key string, values [][]byte, emit Emitter) error {
			var v int
			if _, err := fmt.Sscanf(key, "%d", &v); err != nil {
				return err
			}
			mu.Lock()
			ran[v] = ctx.Node
			mu.Unlock()
			return nil
		},
	}
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
	if len(ran) != nodes {
		t.Fatalf("%d reduce keys ran, want %d", len(ran), nodes)
	}
	for task, node := range ran {
		if node != task%nodes {
			t.Errorf("reduce task %d ran on node %d, want %d", task, node, task%nodes)
		}
	}
}

// StrictLocality must hold every task for its preferred node even when
// there are far more tasks than workers and each task occupies its node
// long enough to burn the ordinary delay-scheduling budget — the
// property the shuffle-bytes gate's determinism rests on.
func TestStrictLocalityPinsUnderContention(t *testing.T) {
	const nodes = 4
	const tasks = 64
	fs := dfs.New(nodes, 1)
	c := NewCluster(fs, nodes)
	var mu sync.Mutex
	ran := make(map[int]int)
	_, err := c.Run(&Job{
		Name:           "strict-pin",
		Splits:         ControlSplits(tasks),
		Prefer:         preferTable(tasks, func(task int) []int { return []int{task % nodes} }),
		StrictLocality: true,
		Map: func(ctx *TaskContext, split InputSplit, emit Emitter) error {
			time.Sleep(time.Millisecond)
			mu.Lock()
			ran[split.ID] = ctx.Node
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ran) != tasks {
		t.Fatalf("%d tasks ran, want %d", len(ran), tasks)
	}
	for task, node := range ran {
		if node != task%nodes {
			t.Errorf("strict task %d ran on node %d, want %d", task, node, task%nodes)
		}
	}
}

// A strict preference no worker can ever satisfy is waived rather than
// deadlocking the phase.
func TestStrictLocalityWaivesUnsatisfiable(t *testing.T) {
	const nodes = 4
	fs := dfs.New(nodes, 1)
	c := NewCluster(fs, nodes)
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = c.Run(&Job{
			Name:           "strict-waive",
			Splits:         ControlSplits(nodes),
			Prefer:         preferTable(nodes, func(int) []int { return []int{99} }),
			StrictLocality: true,
			Map: func(ctx *TaskContext, split InputSplit, emit Emitter) error {
				return nil
			},
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("strict job with unsatisfiable preference deadlocked")
	}
	if err != nil {
		t.Fatal(err)
	}
}

// JobResult carries the per-job DFS byte accounting: the deltas over the
// job must match the file system's own counters when the job is the only
// traffic source.
func TestJobResultByteAccounting(t *testing.T) {
	const nodes = 4
	fs := dfs.New(nodes, 2)
	c := NewCluster(fs, nodes)
	payload := make([]byte, 5000)
	before := fs.Stats()
	jr, err := c.Run(&Job{
		Name:   "bytes",
		Splits: ControlSplits(nodes),
		Map: func(ctx *TaskContext, split InputSplit, emit Emitter) error {
			fs.Write(fmt.Sprintf("out/%d", split.ID), payload)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	after := fs.Stats()
	if jr.BytesWritten != after.BytesWritten-before.BytesWritten {
		t.Errorf("BytesWritten = %d, FS delta %d", jr.BytesWritten, after.BytesWritten-before.BytesWritten)
	}
	if jr.TransferredBytes != after.BytesTransferred-before.BytesTransferred {
		t.Errorf("TransferredBytes = %d, FS delta %d", jr.TransferredBytes, after.BytesTransferred-before.BytesTransferred)
	}
	// Replication 2 pipelines one extra copy per write.
	if want := int64(nodes * len(payload)); jr.TransferredBytes != want {
		t.Errorf("TransferredBytes = %d, want %d", jr.TransferredBytes, want)
	}
	if jr.BytesWritten != int64(nodes*len(payload)) {
		t.Errorf("BytesWritten = %d", jr.BytesWritten)
	}
}

// stubFaults is a minimal FaultPlane with a fixed set of dead nodes.
type stubFaults struct{ dead map[int]bool }

func (s stubFaults) NodeAlive(node int) bool                          { return !s.dead[node] }
func (s stubFaults) NodeEpoch(node int) int64                         { return 0 }
func (s stubFaults) FetchError(job string, task, node, try int) error { return nil }
func (s stubFaults) AttemptStart(job string, task, attempt, node int, isMap bool) (time.Duration, error) {
	return 0, nil
}

func TestStrictSatisfiable(t *testing.T) {
	c := NewCluster(dfs.New(4, 1), 4)
	if !c.strictSatisfiable([]int{2}) {
		t.Fatal("live in-range node reported unsatisfiable")
	}
	if c.strictSatisfiable([]int{-1, 9}) {
		t.Fatal("out-of-range nodes reported satisfiable")
	}
	c.Faults = stubFaults{dead: map[int]bool{2: true}}
	if c.strictSatisfiable([]int{2}) {
		t.Fatal("dead node reported satisfiable")
	}
	if !c.strictSatisfiable([]int{2, 3}) {
		t.Fatal("live fallback node not found")
	}
	// Fewer slots than datanodes: nodes beyond the worker range can never
	// run a task, so preferring them must be waived.
	few := NewCluster(dfs.New(8, 1), 2)
	if few.strictSatisfiable([]int{5}) {
		t.Fatal("node outside the worker range reported satisfiable")
	}
	if !few.strictSatisfiable([]int{1}) {
		t.Fatal("in-range node reported unsatisfiable")
	}
}

// preferTable builds a Job.Prefer / PreferReduce table of n entries.
func preferTable(n int, f func(task int) []int) [][]int {
	t := make([][]int, n)
	for i := range t {
		t[i] = f(i)
	}
	return t
}
