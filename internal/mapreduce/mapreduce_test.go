package mapreduce

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dfs"
)

// wordCountJob builds the canonical test job over the given documents.
func wordCountJob(docs []string, reducers int) *Job {
	splits := make([]InputSplit, len(docs))
	for i, d := range docs {
		splits[i] = InputSplit{ID: i, Data: []byte(d)}
	}
	return &Job{
		Name:   "wordcount",
		Splits: splits,
		Map: func(ctx *TaskContext, split InputSplit, emit Emitter) error {
			for _, w := range strings.Fields(string(split.Data)) {
				emit.Emit(w, []byte("1"))
			}
			return nil
		},
		Reduce: func(ctx *TaskContext, key string, values [][]byte, emit Emitter) error {
			emit.Emit(key, []byte(strconv.Itoa(len(values))))
			return nil
		},
		NumReduce: reducers,
	}
}

func outputMap(t *testing.T, res *JobResult) map[string]string {
	t.Helper()
	m := make(map[string]string)
	for _, kv := range res.Output {
		m[kv.Key] = string(kv.Value)
	}
	return m
}

func TestWordCount(t *testing.T) {
	c := NewCluster(dfs.New(4, 2), 4)
	res, err := c.Run(wordCountJob([]string{"a b a", "b c", "a"}, 3))
	if err != nil {
		t.Fatal(err)
	}
	got := outputMap(t, res)
	want := map[string]string{"a": "3", "b": "2", "c": "1"}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%s] = %s, want %s (all: %v)", k, got[k], v, got)
		}
	}
	if res.MapTasks != 3 || res.ReduceTasks != 3 {
		t.Fatalf("tasks = %d/%d", res.MapTasks, res.ReduceTasks)
	}
	if res.ShuffledKVs != 6 {
		t.Fatalf("shuffled = %d", res.ShuffledKVs)
	}
	if c.JobsRun() != 1 {
		t.Fatalf("JobsRun = %d", c.JobsRun())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	docs := []string{"x y z x", "y z", "z q r s t", "m n o p q"}
	var first []KV
	for trial := 0; trial < 5; trial++ {
		c := NewCluster(dfs.New(8, 3), 7)
		res, err := c.Run(wordCountJob(docs, 4))
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			first = res.Output
			continue
		}
		if len(res.Output) != len(first) {
			t.Fatalf("trial %d: output length changed", trial)
		}
		for i := range first {
			if res.Output[i].Key != first[i].Key || string(res.Output[i].Value) != string(first[i].Value) {
				t.Fatalf("trial %d: output[%d] = %v, want %v", trial, i, res.Output[i], first[i])
			}
		}
	}
}

func TestMapOnlyJob(t *testing.T) {
	c := NewCluster(dfs.New(2, 1), 2)
	job := &Job{
		Name:   "maponly",
		Splits: ControlSplits(4),
		Map: func(ctx *TaskContext, split InputSplit, emit Emitter) error {
			// Like the partition job: write directly to the FS, emit a
			// control pair only.
			ctx.FS.Write(fmt.Sprintf("out/part-%d", split.ID), split.Data)
			emit.Emit(fmt.Sprintf("%02d", split.ID), nil)
			return nil
		},
	}
	res, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 4 || res.Output[0].Key != "00" {
		t.Fatalf("output = %v", res.Output)
	}
	for i := 0; i < 4; i++ {
		data, err := c.FS.Read(fmt.Sprintf("out/part-%d", i))
		if err != nil || string(data) != strconv.Itoa(i) {
			t.Fatalf("part-%d = %q, %v", i, data, err)
		}
	}
}

func TestRetryOnInjectedFailure(t *testing.T) {
	c := NewCluster(dfs.New(2, 1), 2)
	var mu sync.Mutex
	failed := map[string]bool{}
	// Fail the first attempt of every map task and of reduce task 0.
	c.InjectFailure = func(job string, taskID, attempt int, isMap bool) error {
		mu.Lock()
		defer mu.Unlock()
		key := fmt.Sprintf("%s/%v/%d", job, isMap, taskID)
		if attempt == 0 && (isMap || taskID == 0) && !failed[key] {
			failed[key] = true
			return errors.New("injected")
		}
		return nil
	}
	res, err := c.Run(wordCountJob([]string{"a b", "b"}, 2))
	if err != nil {
		t.Fatal(err)
	}
	got := outputMap(t, res)
	if got["a"] != "1" || got["b"] != "2" {
		t.Fatalf("retried job wrong: %v", got)
	}
	if res.TaskFailures == 0 {
		t.Fatal("failures not recorded")
	}
	if c.TaskFailures() != res.TaskFailures {
		t.Fatal("cluster failure counter mismatch")
	}
}

func TestFailureDoesNotDuplicateOutput(t *testing.T) {
	// A map attempt that emits and then fails must contribute nothing.
	c := NewCluster(dfs.New(1, 1), 1)
	c.InjectFailure = nil
	attempts := map[int]int{}
	var mu sync.Mutex
	job := &Job{
		Name:   "emit-then-fail",
		Splits: ControlSplits(3),
		Map: func(ctx *TaskContext, split InputSplit, emit Emitter) error {
			emit.Emit("k", []byte("x"))
			mu.Lock()
			attempts[split.ID]++
			first := attempts[split.ID] == 1
			mu.Unlock()
			if first {
				return errors.New("fail after emitting")
			}
			return nil
		},
		Reduce: func(ctx *TaskContext, key string, values [][]byte, emit Emitter) error {
			emit.Emit(key, []byte(strconv.Itoa(len(values))))
			return nil
		},
		NumReduce: 1,
	}
	res, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if got := outputMap(t, res)["k"]; got != "3" {
		t.Fatalf("k = %s, want 3 (failed attempts must not double-emit)", got)
	}
}

func TestTooManyFailures(t *testing.T) {
	c := NewCluster(dfs.New(1, 1), 2)
	c.DefaultMaxAttempts = 3
	c.InjectFailure = func(job string, taskID, attempt int, isMap bool) error {
		if isMap && taskID == 1 {
			return errors.New("always fails")
		}
		return nil
	}
	_, err := c.Run(wordCountJob([]string{"a", "b", "c"}, 1))
	if !errors.Is(err, ErrTooManyFailures) {
		t.Fatalf("err = %v", err)
	}
}

func TestPanicIsTaskFailure(t *testing.T) {
	c := NewCluster(dfs.New(1, 1), 1)
	first := true
	var mu sync.Mutex
	job := &Job{
		Name:   "panicky",
		Splits: ControlSplits(1),
		Map: func(ctx *TaskContext, split InputSplit, emit Emitter) error {
			mu.Lock()
			f := first
			first = false
			mu.Unlock()
			if f {
				panic("boom")
			}
			emit.Emit("ok", nil)
			return nil
		},
	}
	res, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0].Key != "ok" {
		t.Fatalf("output = %v", res.Output)
	}
	if res.TaskFailures != 1 {
		t.Fatalf("failures = %d", res.TaskFailures)
	}
}

func TestBadPartitioner(t *testing.T) {
	c := NewCluster(dfs.New(1, 1), 1)
	job := wordCountJob([]string{"a"}, 2)
	job.Partition = func(key string, n int) int { return n + 5 }
	if _, err := c.Run(job); err == nil {
		t.Fatal("out-of-range partitioner accepted")
	}
}

func TestCustomPartitioner(t *testing.T) {
	// The pipeline's jobs route key j to reducer j (Figure 5); verify that
	// identity partitioning works.
	c := NewCluster(dfs.New(2, 1), 2)
	var mu sync.Mutex
	seen := map[string]int{} // key -> reducer task id
	job := &Job{
		Name:   "identity-partition",
		Splits: ControlSplits(4),
		Map: func(ctx *TaskContext, split InputSplit, emit Emitter) error {
			emit.Emit(strconv.Itoa(split.ID), nil)
			return nil
		},
		Reduce: func(ctx *TaskContext, key string, values [][]byte, emit Emitter) error {
			mu.Lock()
			seen[key] = ctx.TaskID
			mu.Unlock()
			return nil
		},
		NumReduce: 4,
		Partition: func(key string, n int) int {
			v, _ := strconv.Atoi(key)
			return v % n
		},
	}
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
	for k, r := range seen {
		v, _ := strconv.Atoi(k)
		if v != r {
			t.Fatalf("key %s handled by reducer %d", k, r)
		}
	}
}

func TestPipeline(t *testing.T) {
	fsim := dfs.New(2, 1)
	c := NewCluster(fsim, 2)
	j1 := &Job{
		Name:   "stage1",
		Splits: ControlSplits(2),
		Map: func(ctx *TaskContext, split InputSplit, emit Emitter) error {
			ctx.FS.Write(fmt.Sprintf("stage1/%d", split.ID), split.Data)
			return nil
		},
	}
	j2 := &Job{
		Name:   "stage2",
		Splits: ControlSplits(2),
		Map: func(ctx *TaskContext, split InputSplit, emit Emitter) error {
			data, err := ctx.FS.Read(fmt.Sprintf("stage1/%d", split.ID))
			if err != nil {
				return err
			}
			emit.Emit(string(data), nil)
			return nil
		},
	}
	results, err := c.Pipeline([]*Job{j1, j2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if len(results[1].Output) != 2 {
		t.Fatalf("stage2 output = %v", results[1].Output)
	}
	if c.JobsRun() != 2 {
		t.Fatalf("JobsRun = %d", c.JobsRun())
	}
}

func TestPipelineStopsOnError(t *testing.T) {
	c := NewCluster(dfs.New(1, 1), 1)
	c.DefaultMaxAttempts = 1
	bad := &Job{
		Name:   "bad",
		Splits: ControlSplits(1),
		Map: func(ctx *TaskContext, split InputSplit, emit Emitter) error {
			return errors.New("nope")
		},
	}
	never := &Job{
		Name:   "never",
		Splits: ControlSplits(1),
		Map: func(ctx *TaskContext, split InputSplit, emit Emitter) error {
			t.Error("job after failure must not run")
			return nil
		},
	}
	results, err := c.Pipeline([]*Job{bad, never})
	if err == nil {
		t.Fatal("pipeline error swallowed")
	}
	if len(results) != 0 {
		t.Fatalf("results = %d", len(results))
	}
}

func TestLaunchOverheadAccounted(t *testing.T) {
	c := NewCluster(dfs.New(1, 1), 1)
	c.LaunchOverhead = 30 * time.Second // accounted, not slept
	start := time.Now()
	res, err := c.Run(wordCountJob([]string{"a"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("overhead was slept despite SleepOnLaunch=false")
	}
	if res.Elapsed < 30*time.Second {
		t.Fatalf("Elapsed = %v, want >= overhead", res.Elapsed)
	}
}

func TestControlSplits(t *testing.T) {
	splits := ControlSplits(3)
	if len(splits) != 3 {
		t.Fatalf("len = %d", len(splits))
	}
	for i, s := range splits {
		if s.ID != i || string(s.Data) != strconv.Itoa(i) {
			t.Fatalf("split %d = %+v", i, s)
		}
		if !strings.Contains(s.Path, "MapInput") {
			t.Fatalf("split path = %s", s.Path)
		}
	}
}

func TestDefaultPartitionerInRange(t *testing.T) {
	for i := 0; i < 1000; i++ {
		p := defaultPartitioner(strconv.Itoa(i), 7)
		if p < 0 || p >= 7 {
			t.Fatalf("partition %d out of range", p)
		}
	}
}

func TestManyTasksFewSlots(t *testing.T) {
	// More tasks than slots exercises queueing.
	docs := make([]string, 50)
	for i := range docs {
		docs[i] = fmt.Sprintf("w%d common", i)
	}
	c := NewCluster(dfs.New(4, 2), 3)
	res, err := c.Run(wordCountJob(docs, 5))
	if err != nil {
		t.Fatal(err)
	}
	if got := outputMap(t, res)["common"]; got != "50" {
		t.Fatalf("common = %s", got)
	}
}

func TestZeroSplitJob(t *testing.T) {
	c := NewCluster(dfs.New(1, 1), 1)
	res, err := c.Run(&Job{Name: "empty", Map: func(ctx *TaskContext, split InputSplit, emit Emitter) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 0 {
		t.Fatalf("output = %v", res.Output)
	}
}
