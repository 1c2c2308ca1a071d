package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// summarize writes a plain-text report of a finished trace: span counts
// by kind, then one line per job span with its task population, bytes,
// and duration — the per-run analog of the paper's per-phase tables.
func summarize(w io.Writer, spans []Span) {
	if len(spans) == 0 {
		fmt.Fprintln(w, "trace: no spans recorded")
		return
	}
	byKind := map[SpanKind]int{}
	for i := range spans {
		byKind[spans[i].Kind]++
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	fmt.Fprintf(w, "trace: %d spans (", len(spans))
	for i, k := range kinds {
		if i > 0 {
			fmt.Fprint(w, ", ")
		}
		fmt.Fprintf(w, "%s=%d", k, byKind[SpanKind(k)])
	}
	fmt.Fprintln(w, ")")

	idx := childrenIndex(spans)
	for i := range spans {
		s := &spans[i]
		if s.Kind != KindJob || s.End.IsZero() {
			continue
		}
		tasks, retries := 0, int64(0)
		for _, ph := range idx[s.ID] {
			tasks += len(idx[ph.ID])
		}
		if v, ok := s.Attrs["task.failures"]; ok {
			retries = v
		}
		fmt.Fprintf(w, "  job %-28s %4d task attempts  retries=%-3d read=%-10d written=%-10d %v\n",
			s.Name, tasks, retries,
			s.Attrs["dfs.bytes_read"], s.Attrs["dfs.bytes_written"],
			s.End.Sub(s.Start).Round(time.Microsecond))
	}
}

// SummarizeString is summarize into a string.
func SummarizeString(spans []Span) string {
	var b strings.Builder
	summarize(&b, spans)
	return b.String()
}
