package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// opResult is one timed operation: a mrinverse.Invert call, or an HTTP
// request from send to last body byte.
type opResult struct {
	ms float64
	// failed says why the operation counts as failed — a non-200, a
	// transport error, or an output that fails its correctness check —
	// and is empty when it succeeded.
	failed    string
	source    string // X-Serve-Source: pipeline, cache, dedup, incremental
	reqBytes  int
	respBytes int
}

// phase is the outcome of one closed-loop run.
type phase struct {
	ops []opResult
	// wall is the timed wall clock throughput divides by: the span of the
	// phase for concurrent clients, the sum of operation times for the
	// single batch caller (whose checks run between operations).
	wall time.Duration
}

func (p *phase) failures() int {
	n := 0
	for _, op := range p.ops {
		if op.failed != "" {
			n++
		}
	}
	return n
}

// latencies returns the sorted times of the operations that succeeded.
func (p *phase) latencies() []float64 {
	ms := make([]float64, 0, len(p.ops))
	for _, op := range p.ops {
		if op.failed == "" {
			ms = append(ms, op.ms)
		}
	}
	sort.Float64s(ms)
	return ms
}

func (p *phase) throughput() float64 {
	if p.wall <= 0 {
		return 0
	}
	return float64(len(p.ops)-p.failures()) / p.wall.Seconds()
}

// limit ends a closed loop after a number of operations or a duration,
// whichever is set. Timed (untraced) phases run for a duration, as the
// driver's contract asks; the one-client traced runs issue a fixed count
// so their counters repeat exactly.
type limit struct {
	ops    int64
	dur    time.Duration
	start  time.Time
	issued atomic.Int64
}

func newLimit(ops int, dur time.Duration) *limit {
	return &limit{ops: int64(ops), dur: dur, start: time.Now()}
}

// take claims the next operation's ordinal, or reports that the loop is
// over.
func (l *limit) take() (int64, bool) {
	if l.dur > 0 && time.Since(l.start) >= l.dur {
		return 0, false
	}
	i := l.issued.Add(1) - 1
	if l.ops > 0 && i >= l.ops {
		return 0, false
	}
	return i, true
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runtimeMeter accumulates allocator and collector activity over the
// intervals between start and stop: what every layer pays the runtime.
// The benchmark's own client-side work is inside the intervals too; it is
// the same code on both sides of a comparison.
type runtimeMeter struct {
	allocBytes, mallocs uint64
	gcCPU, totalCPU     float64
	before              runtime.MemStats
	beforeGC, beforeCPU float64
	samples             []metrics.Sample
	heapSys             uint64
}

func newRuntimeMeter() *runtimeMeter {
	return &runtimeMeter{samples: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
}

func (m *runtimeMeter) cpu() (gc, total float64) {
	metrics.Read(m.samples)
	if m.samples[0].Value.Kind() == metrics.KindFloat64 {
		gc = m.samples[0].Value.Float64()
	}
	if m.samples[1].Value.Kind() == metrics.KindFloat64 {
		total = m.samples[1].Value.Float64()
	}
	return gc, total
}

func (m *runtimeMeter) start() {
	runtime.ReadMemStats(&m.before)
	m.beforeGC, m.beforeCPU = m.cpu()
}

func (m *runtimeMeter) stop() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.allocBytes += after.TotalAlloc - m.before.TotalAlloc
	m.mallocs += after.Mallocs - m.before.Mallocs
	gc, total := m.cpu()
	m.gcCPU += gc - m.beforeGC
	m.totalCPU += total - m.beforeCPU
	if after.HeapSys > m.heapSys {
		m.heapSys = after.HeapSys
	}
}
