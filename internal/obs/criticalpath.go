package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Critical-path analysis over a finished span tree: which chain of spans
// bounded the run's wall-clock? The analyzer walks each span's window
// backwards from its end, at every point descending into the child whose
// interval covers that point (latest-finishing child first); time covered
// by no child is attributed to the span itself (master-side work, job
// launch, shuffle, scheduling gaps). The resulting segments partition the
// root's [Start, End] window exactly, so their durations sum to the
// measured wall-clock by construction.

// PathSegment is one span's self-attributed share of the critical path.
type PathSegment struct {
	Span     Span
	Duration time.Duration
}

// CriticalPath is the analyzer's report for one root span.
type CriticalPath struct {
	Root     Span
	Segments []PathSegment // in increasing time order
	Total    time.Duration // sum of segment durations == root wall-clock
}

// ComputeCriticalPath analyzes the tree rooted at the snapshot's first
// root span (or the span with the given id when rootID > 0).
func ComputeCriticalPath(spans []Span, rootID int64) (*CriticalPath, error) {
	var root *Span
	if rootID > 0 {
		for i := range spans {
			if spans[i].ID == rootID {
				root = &spans[i]
				break
			}
		}
	} else {
		root = Root(spans)
	}
	if root == nil {
		return nil, fmt.Errorf("obs: critical path: no root span")
	}
	if root.End.IsZero() {
		return nil, fmt.Errorf("obs: critical path: root span %q unfinished", root.Name)
	}
	idx := childrenIndex(spans)
	var segs []PathSegment
	cover(*root, root.Start, root.End, idx, &segs)
	// cover emits segments walking backwards; restore time order.
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	cp := &CriticalPath{Root: *root, Segments: segs}
	for _, s := range segs {
		cp.Total += s.Duration
	}
	return cp, nil
}

// cover walks span s's [lo, hi] window backwards, descending into the
// bounding children and attributing uncovered time to s. Segments are
// appended in reverse time order; consecutive segments of the same span
// are merged.
func cover(s Span, lo, hi time.Time, idx map[int64][]*Span, segs *[]PathSegment) {
	children := finishedChildren(s.ID, idx)
	t := hi
	for t.After(lo) {
		// The bounding child: latest end among children starting before t.
		var best *Span
		for _, c := range children {
			if !c.Start.Before(t) {
				continue
			}
			if best == nil || c.End.After(best.End) {
				best = c
			}
		}
		if best == nil {
			emit(segs, s, t.Sub(lo))
			return
		}
		if best.End.Before(t) {
			// Nothing covered (t - best.End]: the parent's own time.
			emit(segs, s, t.Sub(best.End))
			t = best.End
		}
		clo := best.Start
		if clo.Before(lo) {
			clo = lo
		}
		cover(*best, clo, t, idx, segs)
		t = clo
	}
}

// finishedChildren returns s's finished children sorted by end time
// descending, so the bounding-child scan prefers later finishers.
func finishedChildren(id int64, idx map[int64][]*Span) []*Span {
	var out []*Span
	for _, c := range idx[id] {
		if !c.End.IsZero() {
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].End.After(out[j].End) })
	return out
}

// emit appends a segment, merging with the previous one when it belongs
// to the same span (the walk can re-enter a parent between children).
func emit(segs *[]PathSegment, s Span, d time.Duration) {
	if d <= 0 {
		return
	}
	if n := len(*segs); n > 0 && (*segs)[n-1].Span.ID == s.ID {
		(*segs)[n-1].Duration += d
		return
	}
	*segs = append(*segs, PathSegment{Span: s, Duration: d})
}

// String renders the critical path as a table: one line per segment with
// its share of the total wall-clock.
func (cp *CriticalPath) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path of %s (%v wall-clock):\n", cp.Root.Name, cp.Total.Round(time.Microsecond))
	for _, seg := range cp.Segments {
		share := 0.0
		if cp.Total > 0 {
			share = 100 * float64(seg.Duration) / float64(cp.Total)
		}
		track := "master"
		if seg.Span.Track >= 0 {
			track = fmt.Sprintf("node %d", seg.Span.Track)
		}
		fmt.Fprintf(&b, "  %-32s %-9s %12v %5.1f%%\n",
			seg.Span.Name, track, seg.Duration.Round(time.Microsecond), share)
	}
	return b.String()
}
