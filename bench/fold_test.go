package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

var epoch = time.Unix(1_700_000_000, 0)

func span(id, parent int64, name string, kind obs.SpanKind, startMS, endMS int) obs.Span {
	return obs.Span{ID: id, Parent: parent, Name: name, Kind: kind,
		Start: epoch.Add(time.Duration(startMS) * time.Millisecond),
		End:   epoch.Add(time.Duration(endMS) * time.Millisecond)}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// One operation: the benchmark's call span contains a program root span
// (adopted by time), which nests a job, a phase and two overlapping tasks.
func TestFoldNestedAndOverlappingChildren(t *testing.T) {
	spans := []obs.Span{
		span(1, 0, "bench.op", obs.KindPipeline, 0, 100),
		span(2, 1, "bench.invert", obs.KindOp, 10, 90),
		span(3, 0, "pipeline.invert", obs.KindPipeline, 20, 80), // root in the program, adopted by span 2
		span(4, 3, "lu-level", obs.KindJob, 30, 70),
		span(5, 4, "map", obs.KindPhase, 35, 65),
		span(6, 5, "map:0", obs.KindTask, 35, 55),
		span(7, 5, "map:1", obs.KindTask, 45, 65),
		span(8, 3, "master-lu:x", obs.KindOp, 70, 78),
		span(9, 1, "bench.verify", obs.KindOp, 90, 96),
	}
	l := fold(spans)
	if l.ops != 1 || !near(l.wallMS, 100) || l.orphans != 0 {
		t.Fatalf("ops %d wall %v orphans %d", l.ops, l.wallMS, l.orphans)
	}
	want := map[string]float64{
		rowBench:      14 + 6, // root outside its children, plus verify
		rowCoreSelf:   20 + 12,
		rowCoreMaster: 8,
		rowJob:        10,
		rowPhase:      0,  // the two tasks cover the phase
		rowTask:       30, // the union of the tasks, not their 40 ms of busy time
	}
	var sum float64
	for row, ms := range want {
		if !near(l.selfMS[row], ms) {
			t.Errorf("%s = %v ms, want %v", row, l.selfMS[row], ms)
		}
		sum += l.selfMS[row]
	}
	if !near(sum, l.wallMS) {
		t.Errorf("rows sum to %v, wall is %v", sum, l.wallMS)
	}
	if !near(l.taskBusyMS, 40) || !near(l.phaseMS["map"], 30) {
		t.Errorf("busy %v, map %v", l.taskBusyMS, l.phaseMS["map"])
	}
	if len(l.taskSkew) != 1 || !near(l.taskSkew[0], 1) {
		t.Errorf("skew %v", l.taskSkew)
	}
	if got := l.unattributed(); !near(got, 0.30) {
		t.Errorf("unattributed = %v, want 0.30", got)
	}
}

func TestSharesSplitOverlapEvenly(t *testing.T) {
	parent := span(1, 0, "p", obs.KindPhase, 0, 100)
	a, b, c := span(2, 1, "a", obs.KindTask, 0, 60), span(3, 1, "b", obs.KindTask, 40, 100), span(4, 1, "c", obs.KindTask, 90, 130)
	got := shares(&parent, []*obs.Span{&a, &b, &c})
	// a alone 0-40, a+b 40-60, b alone 60-90, b+c 90-100; c is clipped at
	// the parent's end.
	want := []time.Duration{50 * time.Millisecond, 45 * time.Millisecond, 5 * time.Millisecond}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("share %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// Program spans recorded outside any traced operation are left out:
// before the first operation silently (warm-up), later ones counted.
func TestFoldIgnoresSpansOutsideOperations(t *testing.T) {
	spans := []obs.Span{
		span(1, 0, "warm-job", obs.KindJob, 0, 5),
		span(2, 0, "bench.op", obs.KindPipeline, 10, 20),
		span(3, 2, "bench.http_roundtrip", obs.KindOp, 11, 19),
		span(4, 0, "job", obs.KindJob, 12, 18),
		span(5, 0, "late-job", obs.KindJob, 30, 40),
		{ID: 6, Name: "unfinished", Kind: obs.KindJob, Start: epoch},
	}
	l := fold(spans)
	if l.orphans != 1 {
		t.Errorf("orphans = %d, want 1", l.orphans)
	}
	if !near(l.selfMS[rowRoundTrip], 2) || !near(l.selfMS[rowJob], 6) || !near(l.selfMS[rowBench], 2) {
		t.Errorf("rows %v", l.selfMS)
	}
}
