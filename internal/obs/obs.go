// Package obs is the repository's self-contained observability subsystem:
// a concurrency-safe hierarchical span tracer, a metrics registry
// (counters, gauges, fixed-bucket latency histograms), a Chrome
// trace-event JSON exporter viewable in Perfetto or chrome://tracing, a
// critical-path analyzer over finished span trees, and a plain-text
// summary reporter.
//
// The paper's whole evaluation (Tables 1-2, Figures 6-8) attributes time
// and bytes to pipeline phases; this package gives every layer of the
// reproduction — MapReduce engine, DFS, MPI substrate, the core pipeline —
// a common way to record that attribution per run instead of only as
// end-of-job aggregates.
//
// Everything is nil-safe: a nil *Tracer produces nil *Span values, and
// every Span and Registry method is a no-op on a nil receiver, so
// instrumented hot paths cost a pointer comparison (and allocate nothing)
// when observability is off.
package obs

import (
	"sort"
	"sync"
	"time"
)

// SpanKind classifies a span's level in the pipeline hierarchy.
type SpanKind string

// The span hierarchy of a traced inversion: one pipeline span, one span
// per MapReduce job, map/reduce phase spans under each job, one span per
// task attempt under each phase, and op spans for master-side work
// (leaf LU decompositions, input writes, output assembly).
const (
	KindPipeline SpanKind = "pipeline"
	KindJob      SpanKind = "job"
	KindPhase    SpanKind = "phase"
	KindTask     SpanKind = "task"
	KindOp       SpanKind = "op"
	KindChaos    SpanKind = "chaos"
)

// TrackMaster is the display track for spans executed by the master
// (driver) rather than a simulated cluster node.
const TrackMaster = -1

// Span is one timed interval in the trace. Fields are written through the
// owning tracer's lock; read them only from a Snapshot.
type Span struct {
	tr *Tracer

	ID     int64
	Parent int64 // 0 for root spans
	Name   string
	Kind   SpanKind
	// Track is the display lane: a simulated node id, or TrackMaster.
	Track int
	Start time.Time
	End   time.Time
	// Attrs carries numeric attributes (bytes read, retries, ...).
	Attrs map[string]int64
	// Labels carries string attributes (speculative flag, error text, ...).
	Labels map[string]string
}

// Tracer records spans. The zero value is not usable; construct with New.
// A nil *Tracer is a valid always-off tracer.
type Tracer struct {
	mu     sync.Mutex
	spans  []*Span
	nextID int64
	now    func() time.Time
}

// New returns an empty tracer.
func New() *Tracer {
	return &Tracer{now: time.Now}
}

// SetClock replaces the tracer's time source (tests use a fake clock to
// make exported traces deterministic). No-op on a nil tracer.
func (t *Tracer) SetClock(now func() time.Time) {
	if t == nil || now == nil {
		return
	}
	t.mu.Lock()
	t.now = now
	t.mu.Unlock()
}

// StartSpan opens a root span. Returns nil (a valid no-op span) when the
// tracer is nil.
func (t *Tracer) StartSpan(name string, kind SpanKind) *Span {
	return t.start(0, name, kind)
}

func (t *Tracer) start(parent int64, name string, kind SpanKind) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	s := &Span{
		tr:     t,
		ID:     t.nextID,
		Parent: parent,
		Name:   name,
		Kind:   kind,
		Track:  TrackMaster,
		Start:  t.now(),
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Child opens a span under s. Nil-safe: a nil span yields a nil child.
func (s *Span) Child(name string, kind SpanKind) *Span {
	if s == nil {
		return nil
	}
	return s.tr.start(s.ID, name, kind)
}

// Finish closes the span at the tracer's current time. Finishing twice
// keeps the first end time.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.End.IsZero() {
		s.End = s.tr.now()
	}
	s.tr.mu.Unlock()
}

// SetTrack assigns the span's display lane (a simulated node id).
func (s *Span) SetTrack(node int) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.Track = node
	s.tr.mu.Unlock()
}

// SetAttr sets a numeric attribute.
func (s *Span) SetAttr(name string, v int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = make(map[string]int64)
	}
	s.Attrs[name] = v
	s.tr.mu.Unlock()
}

// SetLabel sets a string attribute.
func (s *Span) SetLabel(name, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.Labels == nil {
		s.Labels = make(map[string]string)
	}
	s.Labels[name] = value
	s.tr.mu.Unlock()
}

// Duration returns End - Start, or the time elapsed so far for an
// unfinished span (zero on a nil span).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.End.IsZero() {
		return s.tr.now().Sub(s.Start)
	}
	return s.End.Sub(s.Start)
}

// Len returns the number of spans recorded so far (0 for a nil tracer).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Snapshot returns deep copies of all recorded spans, ordered by start
// time (ties broken by id). Unfinished spans are snapshotted with a zero
// End. Safe to call while spans are still being recorded.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	for i, s := range t.spans {
		cp := *s
		cp.tr = nil
		if len(s.Attrs) > 0 {
			cp.Attrs = make(map[string]int64, len(s.Attrs))
			for k, v := range s.Attrs {
				cp.Attrs[k] = v
			}
		}
		if len(s.Labels) > 0 {
			cp.Labels = make(map[string]string, len(s.Labels))
			for k, v := range s.Labels {
				cp.Labels[k] = v
			}
		}
		out[i] = cp
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Root returns the first recorded root span of a snapshot, or nil.
func Root(spans []Span) *Span {
	for i := range spans {
		if spans[i].Parent == 0 {
			return &spans[i]
		}
	}
	return nil
}

// childrenIndex maps each parent span id to its children, preserving
// snapshot (start-time) order.
func childrenIndex(spans []Span) map[int64][]*Span {
	idx := make(map[int64][]*Span)
	for i := range spans {
		idx[spans[i].Parent] = append(idx[spans[i].Parent], &spans[i])
	}
	return idx
}
