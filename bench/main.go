// Command bench is the repository's benchmark: five named workloads, four
// bounded end-to-end metrics plus the failure count, and a per-layer
// ledger measured from outside the program. README.md in this directory
// defines every name; BENCHMARK.json at the repo root is the driver's
// view of the same contract.
//
//	go run ./bench                       all workloads, one JSON document
//	go run ./bench -workload serve-hot   one workload
//	go run ./bench -compare a.json b.json
//
// The driver's form runs one workload once and prints one result line:
//
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// processStart is as close to process start as a Go program can read a
// clock: set-up time is measured from here.
var processStart = time.Now()

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// traceDir receives each traced run's spans, relative to the repo root the
// command runs from; git ignores it.
const traceDir = "bench/out"

func main() {
	workloadName := flag.String("workload", "", "run only this workload (default: all five)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "length of one timed run")
	trace := flag.Int("trace", 0, "driver form: 0 prints the end-to-end metrics of one untraced run, 1 the per-layer metrics of one traced run")
	out := flag.String("out", "", "also write the JSON document to this file")
	compare := flag.Bool("compare", false, "compare two documents: -compare base.json head.json")
	short := flag.Bool("short", false, "smoke sizes: one short run per workload")
	flag.Parse()

	driverForm := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "trace" {
			driverForm = true
		}
	})

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two files: base.json head.json")
		} else {
			err = runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case driverForm:
		err = runOnce(*workloadName, *seed, *seconds, *trace == 1)
	default:
		err = runAll(*workloadName, *seed, *seconds, *short, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// metric is one measured value as the driver reads it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output in the driver's form.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOnce is the driver's form: one workload, one process, one run.
func runOnce(name string, seed int64, seconds float64, traced bool) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var line *resultLine
	var err error
	if traced {
		line, err = runTraced(w, seed, seconds, traceDir)
	} else {
		line, err = runUntraced(w, seed, seconds)
	}
	if err != nil {
		return err
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	return nil
}

// emit builds a result line from named values, taking units from defs and
// insisting that every defined metric is present.
func emit(defs []metricDef, values map[string]float64, attempted, failed int) (*resultLine, error) {
	line := &resultLine{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		line.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return line, nil
}
