package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of -compare.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge compares one end-to-end metric between two documents. worse is
// the share of the base by which the head moved in the wrong direction
// (negative when it moved the right way); noise is the wider of the two
// files' own run-to-run spreads. A move beyond the bound counts only when
// it also clears the noise; a metric whose noise alone exceeds the bound
// and that shows no such move is unresolved, never "unchanged".
func judge(d metricDef, base, head result) (ratio float64, verdict string) {
	if base.Value == 0 {
		if head.Value == 0 {
			return 1, unchanged
		}
		return math.Inf(1), unresolved
	}
	ratio = head.Value / base.Value
	worse := ratio - 1
	if d.better == "higher" {
		worse = 1 - ratio
	}
	noise := math.Max(spread(base.Runs), spread(head.Runs))
	switch {
	case worse > d.bound && worse > noise:
		return ratio, regressed
	case worse < -d.bound && -worse > noise:
		return ratio, improved
	case noise > d.bound:
		return ratio, unresolved
	}
	return ratio, unchanged
}

// judgeFailures compares fail_frac: it has no tolerance.
func judgeFailures(base, head result) string {
	switch {
	case head.Value > base.Value:
		return regressed
	case head.Value < base.Value:
		return improved
	}
	return unchanged
}

func loadDocument(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// runCompare prints one row per (workload, end-to-end metric) with base,
// head, their ratio and a verdict, then every [count] metric that differs.
// It fails when any row regressed.
func runCompare(out io.Writer, basePath, headPath string) error {
	base, err := loadDocument(basePath)
	if err != nil {
		return err
	}
	head, err := loadDocument(headPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\thead\thead/base\tbound\tverdict")
	regressions := 0
	var exactDiffs []string
	for _, w := range workloads {
		b, h := base.Results[w.name], head.Results[w.name]
		if b == nil || h == nil {
			continue
		}
		for _, d := range endToEnd {
			ratio, v := judge(d, b[d.name], h[d.name])
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%.3f\t%.0f%%\t%s\n", w.name, d.name,
				b[d.name].Value, d.unit, h[d.name].Value, d.unit, ratio, 100*d.bound, v)
			if v == regressed {
				regressions++
			}
		}
		v := judgeFailures(b[failFrac], h[failFrac])
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t-\tany rise\t%s\n", w.name, failFrac,
			b[failFrac].Value, h[failFrac].Value, v)
		if v == regressed {
			regressions++
		}
		for _, d := range perLayer {
			if d.exact && b[d.name].Value != h[d.name].Value {
				exactDiffs = append(exactDiffs, fmt.Sprintf("%s %s: base %v, head %v",
					w.name, d.name, b[d.name].Value, h[d.name].Value))
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(exactDiffs) == 0 {
		fmt.Fprintln(out, "counts: every exact metric is identical")
	}
	for _, diff := range exactDiffs {
		fmt.Fprintln(out, "count differs:", diff)
	}
	if regressions > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressions)
	}
	return nil
}
