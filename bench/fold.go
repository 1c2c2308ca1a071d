package main

import (
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Folding turns the traced run's spans into the layer ledger. Each traced
// operation is a bench.op root; the program's own root spans (pipeline.*,
// tsqr.*, incr.*, bare job spans under serve) are adopted by the
// benchmark's call span that contains them in time, which is unambiguous
// because the traced run has one client. A span's self time is its
// duration minus the part its children cover; where children overlap (the
// tasks of a phase run in parallel) each instant is split evenly between
// the children active in it, so the self times of one operation's tree
// add up to its wall clock exactly — a partition, not a sum of busy times.

// Ledger rows. The two opaque rows are time the benchmark can bound from
// outside but not see into: a later in-program trace has to explain them.
const (
	rowBench      = "bench"            // the benchmark's own spans: body build, decode, verify
	rowRoundTrip  = "opaque.roundtrip" // HTTP round trip not under any program span: http+fed+serve+core master work
	rowTask       = "opaque.task"      // inside task attempts: kernel vs codec vs dfs
	rowCoreSelf   = "core.self"
	rowCoreMaster = "core.master"
	rowJob        = "mapreduce.job"
	rowPhase      = "mapreduce.phase" // map/reduce phase time not under any task: scheduling, slot hand-off
	rowShuffle    = "mapreduce.shuffle"
	rowTSQR       = "tsqr"
	rowIncr       = "incr"
	rowOther      = "other"
)

// rowOf assigns a span's self time to a ledger row.
func rowOf(s *obs.Span) string {
	switch {
	case s.Name == "bench.invert":
		// InvertObserved outside the pipeline span: validation and
		// building the pipeline's cluster and file system.
		return rowCoreSelf
	case s.Name == "bench.http_roundtrip":
		return rowRoundTrip
	case strings.HasPrefix(s.Name, "bench."):
		return rowBench
	}
	switch s.Kind {
	case obs.KindPipeline:
		switch {
		case strings.HasPrefix(s.Name, "pipeline."):
			return rowCoreSelf
		case strings.HasPrefix(s.Name, "tsqr."):
			return rowTSQR
		case strings.HasPrefix(s.Name, "incr."):
			return rowIncr
		}
	case obs.KindJob:
		return rowJob
	case obs.KindPhase:
		if s.Name == "shuffle" {
			return rowShuffle
		}
		return rowPhase
	case obs.KindTask:
		return rowTask
	case obs.KindOp:
		// write_input, master-lu:*, combine:*, assemble_output.
		return rowCoreMaster
	}
	return rowOther
}

// ledger is the fold of one traced run.
type ledger struct {
	ops    int
	wallMS float64            // sum of bench.op durations
	selfMS map[string]float64 // row -> wall-clock share, summing to wallMS
	// Views that are not part of the partition.
	phaseMS     map[string]float64 // phase name -> summed phase durations
	taskBusyMS  float64            // summed task durations (parallel tasks add)
	taskSkew    []float64          // per phase with >=2 tasks: slowest / median task
	shuffledKVs int64
	orphans     int // program root spans no benchmark call contains
}

func (l *ledger) perOp(row string) float64 {
	if l.ops == 0 {
		return 0
	}
	return l.selfMS[row] / float64(l.ops)
}

// unattributed is the share of traced wall clock in the opaque rows.
func (l *ledger) unattributed() float64 {
	if l.wallMS == 0 {
		return 0
	}
	return (l.selfMS[rowRoundTrip] + l.selfMS[rowTask]) / l.wallMS
}

func finished(s *obs.Span) bool { return !s.End.IsZero() }

// fold builds the ledger from a tracer snapshot.
func fold(spans []obs.Span) *ledger {
	l := &ledger{selfMS: map[string]float64{}, phaseMS: map[string]float64{}}
	kids := map[int64][]*obs.Span{}
	var roots, strays []*obs.Span
	for i := range spans {
		s := &spans[i]
		switch {
		case !finished(s):
		case s.Parent != 0:
			kids[s.Parent] = append(kids[s.Parent], s)
		case s.Name == "bench.op":
			roots = append(roots, s)
		default:
			strays = append(strays, s)
		}
	}
	// Adopt the program's root spans: snapshot order is start order, so
	// the operation containing a stray is found by binary search.
	for _, s := range strays {
		if len(roots) == 0 || s.Start.Before(roots[0].Start) {
			continue // warm-up, before the first traced operation
		}
		i := sort.Search(len(roots), func(i int) bool { return roots[i].Start.After(s.Start) }) - 1
		var host *obs.Span
		if i >= 0 {
			for _, call := range kids[roots[i].ID] {
				if !call.Start.After(s.Start) && !call.End.Before(s.End) {
					host = call
				}
			}
		}
		if host == nil {
			l.orphans++
			continue
		}
		kids[host.ID] = append(kids[host.ID], s)
	}
	for _, r := range roots {
		l.ops++
		l.wallMS += msOf(r.End.Sub(r.Start))
		l.walk(r, 1, kids)
	}
	return l
}

// walk adds s's self time, scaled by weight, to its row and descends.
// weight is the share of s's duration that is s's own wall clock: 1 unless
// s overlapped a sibling.
func (l *ledger) walk(s *obs.Span, weight float64, kids map[int64][]*obs.Span) {
	dur := s.End.Sub(s.Start)
	children := kids[s.ID]
	share := shares(s, children)
	var covered time.Duration
	for _, d := range share {
		covered += d
	}
	l.selfMS[rowOf(s)] += msOf(dur-covered) * weight
	l.view(s, children)
	for i, c := range children {
		if cd := c.End.Sub(c.Start); cd > 0 {
			l.walk(c, weight*float64(share[i])/float64(cd), kids)
		}
	}
}

// view records the non-partition numbers of a phase: its wall, its
// shuffle count, and its tasks' busy time and skew.
func (l *ledger) view(s *obs.Span, children []*obs.Span) {
	if s.Kind != obs.KindPhase {
		return
	}
	l.phaseMS[s.Name] += msOf(s.End.Sub(s.Start))
	l.shuffledKVs += s.Attrs["shuffled_kvs"]
	var tasks []float64
	for _, c := range children {
		if c.Kind == obs.KindTask {
			d := msOf(c.End.Sub(c.Start))
			tasks = append(tasks, d)
			l.taskBusyMS += d
		}
	}
	if m := median(tasks); len(tasks) >= 2 && m > 0 {
		l.taskSkew = append(l.taskSkew, percentile(sortedCopy(tasks), 1)/m)
	}
}

// shares splits the part of parent that its children cover between them:
// every instant goes in equal parts to the children active in it. The
// result is aligned with children; its sum is the length of their union
// inside parent.
func shares(parent *obs.Span, children []*obs.Span) []time.Duration {
	out := make([]time.Duration, len(children))
	if len(children) == 0 {
		return out
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, len(children))
	limit := parent.End.Sub(parent.Start).Nanoseconds()
	var cuts []int64
	for i, c := range children {
		lo, hi := c.Start.Sub(parent.Start).Nanoseconds(), c.End.Sub(parent.Start).Nanoseconds()
		if lo < 0 {
			lo = 0
		}
		if hi > limit {
			hi = limit
		}
		if hi < lo {
			hi = lo
		}
		ivs[i] = iv{lo, hi}
		cuts = append(cuts, lo, hi)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for k := 0; k+1 < len(cuts); k++ {
		lo, hi := cuts[k], cuts[k+1]
		if hi == lo {
			continue
		}
		var active []int
		for i, v := range ivs {
			if v.lo <= lo && v.hi >= hi {
				active = append(active, i)
			}
		}
		for _, i := range active {
			out[i] += time.Duration((hi - lo) / int64(len(active)))
		}
	}
	return out
}
