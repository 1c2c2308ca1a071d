package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic time source advancing a fixed step per call.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func newFakeClock(step time.Duration) *fakeClock {
	return &fakeClock{t: time.Unix(1000, 0), step: step}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

func TestSpanHierarchy(t *testing.T) {
	tr := New()
	root := tr.StartSpan("pipeline", KindPipeline)
	job := root.Child("job", KindJob)
	task := job.Child("map:0", KindTask)
	task.SetTrack(3)
	task.SetAttr("bytes", 150)
	task.SetLabel("speculative", "true")
	task.Finish()
	job.Finish()
	root.Finish()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	r := Root(spans)
	if r == nil || r.Name != "pipeline" {
		t.Fatalf("root = %+v", r)
	}
	idx := childrenIndex(spans)
	if len(idx[r.ID]) != 1 || idx[r.ID][0].Name != "job" {
		t.Fatalf("root children = %+v", idx[r.ID])
	}
	tk := idx[idx[r.ID][0].ID][0]
	if tk.Track != 3 || tk.Attrs["bytes"] != 150 || tk.Labels["speculative"] != "true" {
		t.Fatalf("task span = %+v", tk)
	}
	if tk.End.IsZero() {
		t.Fatal("task span not finished")
	}
}

// TestConcurrentSpans exercises concurrent creation, attribute writes, and
// finishing from many goroutines; run with -race.
func TestConcurrentSpans(t *testing.T) {
	tr := New()
	root := tr.StartSpan("root", KindPipeline)
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s := root.Child("task", KindTask)
				s.SetTrack(w)
				s.SetAttr("i", int64(i))
				s.SetLabel("w", "x")
				_ = s.Duration()
				s.Finish()
			}
		}(w)
	}
	// Concurrent snapshot while spans are being recorded must be safe.
	for i := 0; i < 10; i++ {
		_ = tr.Snapshot()
	}
	wg.Wait()
	root.Finish()
	if got, want := tr.Len(), workers*perWorker+1; got != want {
		t.Fatalf("recorded %d spans, want %d", got, want)
	}
	for _, s := range tr.Snapshot() {
		if s.End.IsZero() {
			t.Fatalf("unfinished span %q", s.Name)
		}
	}
}

// TestNoopPathAllocatesNothing pins the disabled-tracing hot path: every
// span operation on the nil tracer must allocate zero bytes.
func TestNoopPathAllocatesNothing(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		root := tr.StartSpan("pipeline", KindPipeline)
		job := root.Child("job", KindJob)
		task := job.Child("task", KindTask)
		task.SetTrack(1)
		task.SetAttr("bytes", 1)
		task.SetLabel("k", "v")
		_ = task.Duration()
		task.Finish()
		job.Finish()
		root.Finish()
	})
	if allocs != 0 {
		t.Fatalf("no-op tracer path allocated %.1f times per run, want 0", allocs)
	}
	if tr.Len() != 0 {
		t.Fatalf("nil tracer recorded %d spans", tr.Len())
	}
}

// TestNoopMetricsAllocateNothing pins the nil-registry instrument path.
func TestNoopMetricsAllocateNothing(t *testing.T) {
	var r *Registry
	allocs := testing.AllocsPerRun(100, func() {
		r.Counter("c").Add(1)
		r.Gauge("g").Set(2)
		r.Histogram("h").Observe(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("no-op metrics path allocated %.1f times per run, want 0", allocs)
	}
}

func TestMetricsRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("mr.jobs").Add(3)
	if r.Counter("mr.jobs").Value() != 3 {
		t.Fatalf("counter = %d", r.Counter("mr.jobs").Value())
	}
	r.Gauge("dfs.files").Set(12)
	if r.Gauge("dfs.files").Value() != 12 {
		t.Fatalf("gauge = %d", r.Gauge("dfs.files").Value())
	}
	h := r.Histogram("mr.task_latency")
	h.Observe(5 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(time.Minute) // overflow bucket
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("histogram count = %d", s.Count)
	}
	if s.Counts[0] != 1 || s.Counts[len(s.Counts)-1] != 1 {
		t.Fatalf("bucket counts = %v", s.Counts)
	}
	out := r.String()
	for _, want := range []string{"mr.jobs", "dfs.files", "mr.task_latency", "n=3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentMetrics(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("c").Add(1)
				r.Histogram("h").Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 1600 {
		t.Fatalf("counter = %d, want 1600", got)
	}
	if got := r.Histogram("h").Snapshot().Count; got != 1600 {
		t.Fatalf("histogram count = %d, want 1600", got)
	}
}

func TestSummarize(t *testing.T) {
	tr := New()
	tr.SetClock(newFakeClock(time.Millisecond).now)
	root := tr.StartSpan("pipeline.invert", KindPipeline)
	job := root.Child("lu:Root", KindJob)
	job.SetAttr("dfs.bytes_read", 512)
	ph := job.Child("map", KindPhase)
	tk := ph.Child("map:0", KindTask)
	tk.Finish()
	ph.Finish()
	job.Finish()
	root.Finish()
	out := SummarizeString(tr.Snapshot())
	for _, want := range []string{"4 spans", "job=1", "lu:Root", "read=512"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}
