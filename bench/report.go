package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// document is what `go run ./bench` prints: every metric of every
// workload, by name, plus the environment it was measured in. -compare
// reads two of them.
type document struct {
	Env       environment                  `json:"env"`
	Workloads map[string]workloadInfo      `json:"workloads"`
	Results   map[string]map[string]result `json:"results"`
}

type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	// Runs is how many untraced runs, each a process of its own, stand
	// behind every end-to-end value.
	Runs int `json:"runs"`
}

type workloadInfo struct {
	Why            string  `json:"why"`
	Clients        int     `json:"clients"`
	TailPercentile float64 `json:"tail_percentile"`
}

// result is one metric of one workload. An end-to-end value is the median
// of Runs; Samples is the number of operations behind the value (of the
// last run, for end-to-end metrics).
type result struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples"`
	Runs    []float64 `json:"runs,omitempty"`
}

// failFrac is the document's name for failed/attempted, the fifth
// end-to-end metric: any rise is a regression.
const failFrac = "fail_frac"

// Untraced runs per workload: three processes give a median and a spread
// for -compare to judge against; -short takes one.
const (
	fullRuns     = 3
	shortSeconds = 2
)

// child runs this binary in the driver's form and parses its result line.
// Each run is a process of its own so heap state never leaks between
// workloads.
func child(self string, w workloadSpec, seed int64, seconds float64, traced bool) (*resultLine, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", w.name, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("%s (trace %s): result line: %w", w.name, trace, err)
	}
	return &line, nil
}

// runAll runs the selected workloads — untraced for the end-to-end
// metrics, then traced for the per-layer ones — and prints the document on
// standard output and a table on standard error.
func runAll(only string, seed int64, seconds float64, short bool, outPath string) error {
	selected := workloads
	if only != "" {
		w, ok := findWorkload(only)
		if !ok {
			return fmt.Errorf("unknown workload %q", only)
		}
		selected = []workloadSpec{w}
	}
	runs := fullRuns
	if short {
		runs = 1
		if seconds > shortSeconds {
			seconds = shortSeconds
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	doc := &document{
		Env: environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
			Commit: commit(), Seed: seed, Seconds: seconds, Runs: runs},
		Workloads: map[string]workloadInfo{},
		Results:   map[string]map[string]result{},
	}
	anyFailed := false
	for _, w := range selected {
		doc.Workloads[w.name] = workloadInfo{Why: w.why, Clients: w.clients(), TailPercentile: w.tail}
		res := map[string]result{}
		doc.Results[w.name] = res
		attempted, failed := 0, 0
		for r := 0; r < runs; r++ {
			line, err := child(self, w, seed, seconds, false)
			if err != nil {
				return err
			}
			attempted += line.Attempted
			failed += line.Failed
			for _, d := range endToEnd {
				cur := res[d.name]
				cur.Unit, cur.Samples = d.unit, line.Attempted
				cur.Runs = append(cur.Runs, line.Metrics[d.name].Value)
				cur.Value = median(cur.Runs)
				res[d.name] = cur
			}
		}
		line, err := child(self, w, seed, seconds, true)
		if err != nil {
			return err
		}
		attempted += line.Attempted
		failed += line.Failed
		for _, d := range perLayer {
			res[d.name] = result{Value: line.Metrics[d.name].Value, Unit: d.unit, Samples: line.Attempted}
		}
		res[failFrac] = result{Value: float64(failed) / float64(attempted), Unit: "fraction", Samples: attempted}
		anyFailed = anyFailed || failed > 0
	}
	printTable(os.Stderr, doc, selected)
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if _, err := os.Stdout.Write(enc); err != nil {
		return err
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, enc, 0o644); err != nil {
			return err
		}
	}
	if anyFailed {
		return fmt.Errorf("operations failed: fail_frac > 0")
	}
	return nil
}

// commit names the checked-out revision when there is a git repository to
// ask; the driver's checkout is not one.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return string(bytes.TrimSpace(out))
}

// printTable renders the document for a reader: one row per metric, one
// column per workload.
func printTable(out io.Writer, doc *document, selected []workloadSpec) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "metric\tunit\t")
	for _, w := range selected {
		fmt.Fprintf(tw, "%s\t", w.name)
	}
	fmt.Fprintln(tw)
	row := func(name, unit string) {
		fmt.Fprintf(tw, "%s\t%s\t", name, unit)
		for _, w := range selected {
			label := ""
			if name == "op_tail_ms" {
				label = fmt.Sprintf(" (p%.0f)", w.tail*100)
			}
			fmt.Fprintf(tw, "%.4g%s\t", doc.Results[w.name][name].Value, label)
		}
		fmt.Fprintln(tw)
	}
	for _, d := range endToEnd {
		row(d.name, d.unit)
	}
	row(failFrac, "fraction")
	for _, d := range perLayer {
		row(d.name, d.unit)
	}
	tw.Flush()
	fmt.Fprintf(out, "seed %d, %g s per run, %d untraced run(s) per workload, %s, GOMAXPROCS %d of %d, commit %s\n",
		doc.Env.Seed, doc.Env.Seconds, doc.Env.Runs, doc.Env.Go, doc.Env.GOMAXPROCS, doc.Env.NProc, doc.Env.Commit)
}
