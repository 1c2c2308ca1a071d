// mrbench regenerates every table and figure of the paper's evaluation
// (Section 7). For each artifact it prints the paper-scale series from the
// calibrated cost model; with -measure it additionally runs real
// reduced-scale executions of the pipeline (and the ScaLAPACK baseline)
// on this machine to validate the shapes.
//
//	mrbench -exp all
//	mrbench -exp fig6 -measure
//	mrbench -exp sec74
//	mrbench -exp fig6 -json            # machine-readable output
//	mrbench -trace run.json -metrics   # instrumented run at -n/-nb
//
// Experiments: table1 table2 table3 fig6 fig7 fig8 sec74 acc all
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	mrinverse "repro"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/incr"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/workload"
)

var allExperiments = []string{"table1", "table2", "table3", "fig6", "fig7", "fig8", "sec74", "acc", "nb", "engines", "spark", "multiround", "incr"}

// seedBase offsets every measurement matrix's RNG seed; the -seed flag
// makes measured runs reproducible (same seed, same matrices) without
// collapsing the distinct per-experiment inputs.
var seedBase int64 = 1

func main() {
	exp := flag.String("exp", "all", "experiment id: table1|table2|table3|fig6|fig7|fig8|sec74|acc|nb|engines|spark|multiround|incr|all")
	measure := flag.Bool("measure", false, "also run real reduced-scale measurements")
	n := flag.Int("n", 384, "matrix order for -measure runs")
	nb := flag.Int("nb", 64, "bound value for -measure runs")
	seed := flag.Int64("seed", 1, "base RNG seed for measurement matrices: same seed, same matrices")
	jsonOut := flag.Bool("json", false, "emit one machine-readable JSON object per experiment instead of text")
	traceOut := flag.String("trace", "", "run one instrumented inversion at -n/-nb and write a Chrome trace-event JSON file")
	showMetrics := flag.Bool("metrics", false, "run one instrumented inversion at -n/-nb and print the metrics registry")
	killNodes := flag.Int("kill-nodes", 0, "run the measured §7.4 failure-recovery slowdown curve for 0..k killed nodes at -n/-nb")
	flag.Parse()
	seedBase = *seed

	if *traceOut != "" || *showMetrics {
		observedRun(*traceOut, *showMetrics, *n, *nb)
		return
	}

	if *killNodes > 0 {
		failureRecovery(*killNodes, *n, *nb, *jsonOut)
		return
	}

	if *jsonOut {
		emitJSON(*exp)
		return
	}

	run := map[string]func(bool, int, int){
		"table1": table1, "table2": table2, "table3": table3,
		"fig6": fig6, "fig7": fig7, "fig8": fig8,
		"sec74": sec74, "acc": acc,
		"nb": nbTune, "engines": engines, "spark": sparkExp,
		"multiround": multiRound, "incr": incrExp,
	}
	if *exp == "all" {
		for _, id := range allExperiments {
			run[id](*measure, *n, *nb)
			fmt.Println()
		}
		return
	}
	f, ok := run[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	f(*measure, *n, *nb)
}

// observedRun performs one traced + metered pipeline inversion and writes
// the requested artifacts.
func observedRun(traceOut string, showMetrics bool, n, nb int) {
	var tracer *obs.Tracer
	var metrics *obs.Registry
	if traceOut != "" {
		tracer = obs.New()
	}
	if showMetrics {
		metrics = obs.NewRegistry()
	}
	a := mrinverse.Random(n, seedBase)
	opts := mrinverse.DefaultOptions(8)
	opts.NB = nb
	inv, rep, err := mrinverse.InvertObserved(a, opts, tracer, metrics)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inverted n=%d nb=%d in %v over %d jobs; residual %.2g\n",
		n, nb, rep.Elapsed.Round(time.Millisecond), rep.JobsRun, mrinverse.Residual(a, inv))
	if tracer != nil {
		spans := tracer.Snapshot()
		f, ferr := os.Create(traceOut)
		if ferr != nil {
			log.Fatal(ferr)
		}
		if werr := obs.WriteChromeTrace(f, spans); werr != nil {
			log.Fatal(werr)
		}
		if cerr := f.Close(); cerr != nil {
			log.Fatal(cerr)
		}
		fmt.Printf("wrote %d spans to %s (open in chrome://tracing or ui.perfetto.dev)\n", len(spans), traceOut)
		fmt.Print(obs.SummarizeString(spans))
		if root := obs.Root(spans); root != nil {
			if cp, cerr := obs.ComputeCriticalPath(spans, root.ID); cerr == nil {
				fmt.Print(cp.String())
			}
		}
	}
	if metrics != nil {
		fmt.Print(metrics.String())
	}
}

// failureRecovery measures the paper's §7.4 failure-recovery slowdown on
// this machine: for each kill count 0..k it inverts the same seeded matrix
// fault-free and under a seeded chaos schedule, reporting the slowdown and
// asserting the inverse bit-identical. JSON output is one object, shaped
// like the other experiments' JSONL lines so it can append to a bench
// report.
func failureRecovery(k, n, nb int, jsonOut bool) {
	kills := make([]int, k+1)
	for i := range kills {
		kills[i] = i
	}
	curve, err := chaos.SlowdownCurve(chaos.ExperimentConfig{
		N: n, NB: nb, Nodes: 8, Seed: seedBase, Restart: true, FetchFailEvery: 3,
	}, kills)
	if err != nil {
		log.Fatal(err)
	}
	if jsonOut {
		type point struct {
			Kills             int     `json:"kills"`
			BaselineMs        float64 `json:"baseline_ms"`
			FaultyMs          float64 `json:"faulty_ms"`
			Slowdown          float64 `json:"slowdown"`
			TaskFailures      int     `json:"task_failures"`
			LostMapOutputs    int     `json:"lost_map_outputs"`
			SpeculativeTasks  int     `json:"speculative_tasks"`
			BytesReReplicated int64   `json:"bytes_rereplicated"`
			Identical         bool    `json:"identical"`
		}
		pts := make([]point, len(curve))
		for i, r := range curve {
			pts[i] = point{
				Kills:             r.Config.Kill,
				BaselineMs:        r.Baseline.ElapsedMs,
				FaultyMs:          r.Faulty.ElapsedMs,
				Slowdown:          r.Slowdown,
				TaskFailures:      r.Faulty.TaskFailures,
				LostMapOutputs:    r.Faulty.LostMapOutputs,
				SpeculativeTasks:  r.Faulty.SpeculativeTasks,
				BytesReReplicated: r.Chaos.BytesReReplicated,
				Identical:         r.Identical,
			}
		}
		if err := json.NewEncoder(os.Stdout).Encode(map[string]any{
			"experiment": "sec74_failure_recovery",
			"data":       map[string]any{"n": n, "nb": nb, "nodes": 8, "seed": seedBase, "points": pts},
		}); err != nil {
			log.Fatal(err)
		}
		return
	}
	header(fmt.Sprintf("Section 7.4: measured failure recovery (n=%d, nb=%d, 8 nodes)", n, nb))
	fmt.Printf("%-6s %-12s %-12s %-9s %-9s %-6s %s\n",
		"kills", "baseline", "faulty", "slowdown", "failures", "spec", "identical")
	for _, r := range curve {
		fmt.Printf("%-6d %-12.1f %-12.1f %-9.2f %-9d %-6d %v\n",
			r.Config.Kill, r.Baseline.ElapsedMs, r.Faulty.ElapsedMs, r.Slowdown,
			r.Faulty.TaskFailures, r.Faulty.SpeculativeTasks, r.Identical)
		if !r.Identical {
			log.Fatalf("kills=%d: inverse under chaos differs from the fault-free run", r.Config.Kill)
		}
	}
}

// emitJSON writes one JSON object per experiment id to stdout — the
// machine-readable twin of the text reports, built from the cost model's
// structured series (and real runs for the execution-backed experiments).
// JSON payloads use the fixed paper-scale configs, not -measure/-n/-nb.
func emitJSON(exp string) {
	ids := []string{exp}
	if exp == "all" {
		ids = allExperiments
	}
	enc := json.NewEncoder(os.Stdout)
	for _, id := range ids {
		payload, err := jsonPayload(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := enc.Encode(map[string]any{"experiment": id, "data": payload}); err != nil {
			log.Fatal(err)
		}
	}
}

func jsonPayload(id string) (any, error) {
	switch id {
	case "table1":
		return costmodel.Table1Rows(20480, 64), nil
	case "table2":
		return costmodel.Table2Rows(20480, 64), nil
	case "table3":
		return costmodel.Table3Rows(), nil
	case "fig6":
		return costmodel.Fig6(), nil
	case "fig7":
		return costmodel.Fig7(), nil
	case "fig8":
		return costmodel.Fig8(), nil
	case "sec74":
		return costmodel.Sec74(), nil
	case "acc":
		return accRows()
	case "nb":
		return nbTable(), nil
	case "engines":
		return engineRows(), nil
	case "spark":
		return sparkRun()
	case "multiround":
		rows, err := multiRoundRows(256, 16)
		if err != nil {
			return nil, err
		}
		choice := costmodel.ChooseMultiply(costmodel.NewCluster(costmodel.Medium, 64), 102400, 102400, 102400, 0)
		return map[string]any{
			"n":     256,
			"nodes": 16,
			"rows":  rows,
			"paper_scale_choice": map[string]any{
				"n": 102400, "nodes": 64,
				"strategy": string(choice.Strategy), "rho": choice.Rho, "reason": choice.Reason,
			},
		}, nil
	case "incr":
		rows, err := incrRows(256, 8)
		if err != nil {
			return nil, err
		}
		return map[string]any{"n": 256, "nodes": 8, "rows": rows}, nil
	default:
		return nil, fmt.Errorf("unknown experiment %q", id)
	}
}

// incrRow is one measured update-vs-full comparison: a rank-k row
// mutation of a seeded order-n base served by the Sherman–Morrison–
// Woodbury update against rerunning the full inversion pipeline.
type incrRow struct {
	N          int     `json:"n"`
	K          int     `json:"k"`
	Strategy   string  `json:"strategy"` // cost-model pick for this (n, k)
	UpdateMs   float64 `json:"update_ms"`
	FullMs     float64 `json:"full_ms"`
	Speedup    float64 `json:"speedup"`
	Residual   float64 `json:"residual"`
	UpdateWins bool    `json:"update_wins"`
}

// incrRows measures the incremental-inversion speedup backing the CI
// gate: one pipeline inversion of the base, then for each delta rank the
// SMW update of the cached inverse against a fresh full-pipeline
// inversion of the mutated matrix, with the update's sampled residual
// recorded so a fast-but-wrong row can never pass.
func incrRows(n, nodes int) ([]incrRow, error) {
	base := workload.DiagonallyDominant(n, seedBase+21)
	opts := mrinverse.DefaultOptions(nodes)
	opts.NB = 64
	ainv, _, err := mrinverse.Invert(base, opts)
	if err != nil {
		return nil, fmt.Errorf("incr base inversion: %w", err)
	}
	var rows []incrRow
	for _, k := range []int{1, 4, 8, 32} {
		mutSeed := seedBase + int64(100+k)
		mut := workload.MutateRows(base, k, mutSeed)
		start := time.Now()
		if _, _, err := mrinverse.Invert(mut, opts); err != nil {
			return nil, fmt.Errorf("incr full inversion k=%d: %w", k, err)
		}
		fullMs := float64(time.Since(start).Microseconds()) / 1000

		u, v := incr.RowDelta(base, mut, workload.MutatedRows(n, k, mutSeed))
		choice := costmodel.ChooseUpdate(costmodel.ServingCluster(nodes), n, k, opts.NB, 0)
		start = time.Now()
		x, err := incr.Update(ainv, u, v, 0)
		if err != nil {
			return nil, fmt.Errorf("incr update k=%d: %w", k, err)
		}
		updateMs := float64(time.Since(start).Microseconds()) / 1000
		rows = append(rows, incrRow{
			N: n, K: k, Strategy: string(choice.Strategy),
			UpdateMs: updateMs, FullMs: fullMs,
			Speedup:    fullMs / updateMs,
			Residual:   incr.SampledResidual(mut, x, incr.DefaultSampleCols),
			UpdateWins: updateMs < fullMs,
		})
	}
	return rows, nil
}

func incrExp(bool, int, int) {
	header("Incremental inversion: measured SMW update vs full pipeline (n=256, 8 nodes)")
	rows, err := incrRows(256, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%4s %4s %-12s %10s %10s %8s %10s %6s\n",
		"n", "k", "strategy", "update", "full", "speedup", "residual", "wins")
	for _, r := range rows {
		fmt.Printf("%4d %4d %-12s %8.2fms %8.2fms %7.1fx %10.2g %6v\n",
			r.N, r.K, r.Strategy, r.UpdateMs, r.FullMs, r.Speedup, r.Residual, r.UpdateWins)
	}
	fmt.Println("the update path is O(kn²) against the pipeline's O(n³): at k ≪ n the")
	fmt.Println("cached base inverse turns a reinversion into a few thin multiplies.")
}

// multiRoundRow is one measured multiply-strategy execution on the gated
// M-suite shape (order M5/64 on 16 nodes).
type multiRoundRow struct {
	Strategy         string  `json:"strategy"`
	Rho              int     `json:"rho"`
	Grid             [2]int  `json:"grid"`
	Jobs             int     `json:"jobs"`
	TransferredBytes int64   `json:"transferred_bytes"`
	BytesRead        int64   `json:"bytes_read"`
	ShuffledKVs      int     `json:"shuffled_kvs"`
	MaxAbsDiff       float64 `json:"max_abs_diff"`
	BeatsSingle      bool    `json:"beats_single"`
}

// multiRoundRows measures every multiply strategy on one seeded n x n
// product: the fig7-style communication comparison backing the CI
// transfer gate, with exactness checked against the in-process product.
func multiRoundRows(n, nodes int) ([]multiRoundRow, error) {
	a := workload.Random(n, seedBase+11)
	b := workload.Random(n, seedBase+12)
	exact, err := matrix.Mul(a, b)
	if err != nil {
		return nil, err
	}
	var rows []multiRoundRow
	var single int64
	for _, strategy := range []core.MultiplyStrategy{
		core.MultiplySingleRound, core.MultiplyReplicated, core.MultiplySpaceRound,
	} {
		opts := core.DefaultOptions(nodes)
		opts.Multiply = strategy
		p, err := core.NewPipeline(opts)
		if err != nil {
			return nil, err
		}
		out, rep, err := p.MultiplyWithReport(a, b)
		if err != nil {
			return nil, fmt.Errorf("multiround %s: %w", strategy, err)
		}
		if strategy == core.MultiplySingleRound {
			single = rep.TransferredBytes
		}
		rows = append(rows, multiRoundRow{
			Strategy:         string(rep.Strategy),
			Rho:              rep.Rho,
			Grid:             rep.Grid,
			Jobs:             rep.Jobs,
			TransferredBytes: rep.TransferredBytes,
			BytesRead:        rep.BytesRead,
			ShuffledKVs:      rep.ShuffledKVs,
			MaxAbsDiff:       matrix.MaxAbsDiff(out, exact),
			BeatsSingle:      strategy != core.MultiplySingleRound && rep.TransferredBytes < single,
		})
	}
	return rows, nil
}

func multiRound(measure bool, n, nb int) {
	header("Multi-round multiplication: measured shuffle bytes per strategy (n=256, 16 nodes)")
	rows, err := multiRoundRows(256, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-14s %4s %-8s %5s %16s %14s %12s %6s\n",
		"strategy", "rho", "grid", "jobs", "transferred", "read", "maxdiff", "wins")
	for _, r := range rows {
		fmt.Printf("%-14s %4d %-8s %5d %16d %14d %12.2g %6v\n",
			r.Strategy, r.Rho, fmt.Sprintf("%dx%d", r.Grid[0], r.Grid[1]),
			r.Jobs, r.TransferredBytes, r.BytesRead, r.MaxAbsDiff, r.BeatsSingle)
	}
	choice := costmodel.ChooseMultiply(costmodel.NewCluster(costmodel.Medium, 64), 102400, 102400, 102400, 0)
	fmt.Printf("paper scale (n=102400, 64 nodes): ChooseMultiply -> %s rho=%d\n  %s\n",
		choice.Strategy, choice.Rho, choice.Reason)
}

func header(s string) { fmt.Printf("=== %s ===\n", s) }

func table1(bool, int, int) {
	header("Table 1: LU decomposition complexity (n=20480, m0=64)")
	for _, row := range costmodel.Table1Rows(20480, 64) {
		fmt.Println(row)
	}
}

func table2(bool, int, int) {
	header("Table 2: triangular inversion + final multiply complexity (n=20480, m0=64)")
	for _, row := range costmodel.Table2Rows(20480, 64) {
		fmt.Println(row)
	}
}

func table3(bool, int, int) {
	header("Table 3: evaluation matrices and job counts (nb=3200)")
	for _, row := range costmodel.Table3Rows() {
		fmt.Println(row)
	}
}

func fig6(measure bool, n, nb int) {
	header("Figure 6: strong scalability (model, paper scale, medium instances)")
	fmt.Print(costmodel.SummarizeFig6(costmodel.Fig6()))
	if !measure {
		return
	}
	fmt.Printf("--- measured on this machine: n=%d, nb=%d ---\n", n, nb)
	a := mrinverse.Random(n, seedBase)
	var t1 time.Duration
	for _, nodes := range []int{2, 4, 8, 16} {
		opts := mrinverse.DefaultOptions(nodes)
		opts.NB = nb
		start := time.Now()
		inv, rep, err := mrinverse.Invert(a, opts)
		if err != nil {
			log.Fatalf("nodes=%d: %v", nodes, err)
		}
		el := time.Since(start)
		if nodes == 2 {
			t1 = el
		}
		fmt.Printf("nodes=%2d  time=%-12v jobs=%-3d speedup-vs-2=%.2f  residual=%.2g\n",
			nodes, el.Round(time.Millisecond), rep.JobsRun,
			t1.Seconds()/el.Seconds(), mrinverse.Residual(a, inv))
	}
	fmt.Println("note: simulated task slots share this machine's cores, so wall-clock")
	fmt.Println("speedup saturates at the physical core count; see FS byte accounting")
	fmt.Println("and the cost model for the paper-scale scaling behaviour.")
}

func fig7(measure bool, n, nb int) {
	header("Figure 7: optimization ablations on M5 (model, paper scale)")
	fmt.Printf("%-16s %6s %8s\n", "optimization", "nodes", "ratio")
	for _, p := range costmodel.Fig7() {
		fmt.Printf("%-16s %6d %8.3f\n", p.Optimization, p.Nodes, p.Ratio)
	}
	if !measure {
		return
	}
	fmt.Printf("--- measured I/O on this machine: n=%d, nb=%d, 16 nodes ---\n", n, nb)
	a := mrinverse.Random(n, seedBase+1)
	type variant struct {
		name string
		mod  func(*mrinverse.Options)
	}
	base := func(nodes int) mrinverse.Options {
		o := mrinverse.DefaultOptions(nodes)
		o.NB = nb
		return o
	}
	variants := []variant{
		{"optimized", func(*mrinverse.Options) {}},
		{"no-separate-files", func(o *mrinverse.Options) { o.SeparateFiles = false }},
		{"no-block-wrap", func(o *mrinverse.Options) { o.BlockWrap = false }},
		{"no-transpose-u", func(o *mrinverse.Options) { o.TransposeU = false }},
		{"streaming", func(o *mrinverse.Options) { o.StreamingInversion = true }},
	}
	for _, v := range variants {
		opts := base(16)
		v.mod(&opts)
		start := time.Now()
		_, rep, err := mrinverse.Invert(a, opts)
		if err != nil {
			log.Fatalf("%s: %v", v.name, err)
		}
		fmt.Printf("%-18s bytesRead=%-12d bytesWritten=%-11d files=%-4d wall=%v\n",
			v.name, rep.FS.BytesRead, rep.FS.BytesWritten, rep.FS.FilesCreated,
			time.Since(start).Round(time.Millisecond))
	}
}

func fig8(measure bool, n, nb int) {
	header("Figure 8: T_scalapack / T_ours (model, paper scale, medium instances)")
	fmt.Printf("%-4s %6s %8s\n", "mat", "nodes", "ratio")
	for _, p := range costmodel.Fig8() {
		fmt.Printf("%-4s %6d %8.2f\n", p.Matrix, p.Nodes, p.Ratio)
	}
	fmt.Println("(points where the in-memory baseline exceeds node RAM are omitted)")
	if !measure {
		return
	}
	fmt.Printf("--- measured on this machine: n=%d ---\n", n)
	a := mrinverse.Random(n, seedBase+2)
	for _, nodes := range []int{2, 4, 8} {
		opts := mrinverse.DefaultOptions(nodes)
		opts.NB = nb
		start := time.Now()
		if _, _, err := mrinverse.Invert(a, opts); err != nil {
			log.Fatal(err)
		}
		ours := time.Since(start)
		start = time.Now()
		if _, _, err := mrinverse.InvertScaLAPACK(a, mrinverse.ScaLAPACKConfig{Procs: nodes, BlockSize: 32}); err != nil {
			log.Fatal(err)
		}
		scal := time.Since(start)
		fmt.Printf("nodes=%2d  ours=%-12v scalapack=%-12v ratio=%.2f\n",
			nodes, ours.Round(time.Millisecond), scal.Round(time.Millisecond),
			scal.Seconds()/ours.Seconds())
	}
}

func sec74(measure bool, n, nb int) {
	header("Section 7.4/7.5: the very large matrix M4 (n=102400), model")
	fmt.Printf("%-14s %-12s %-12s %s\n", "system", "cluster", "model", "paper")
	for _, r := range costmodel.Sec74() {
		fmt.Printf("%-14s %-12s %-12s %s\n", r.System, r.Cluster, costmodel.FormatDuration(r.Time), r.Paper)
	}
	if !measure {
		return
	}
	fmt.Printf("--- measured failure recovery on this machine: n=%d ---\n", n)
	// Real failure-injection run: handled in the test suite and the
	// quickstart; here we rerun the pipeline and report job stats.
	a := mrinverse.Random(n, seedBase+3)
	opts := mrinverse.DefaultOptions(8)
	opts.NB = nb
	inv, rep, err := mrinverse.Invert(a, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clean run: %d jobs, %d task failures, residual %.2g\n",
		rep.JobsRun, rep.TaskFailures, mrinverse.Residual(a, inv))
}

// accRow is one Section 7.2 accuracy check: a real pipeline inversion of
// a seeded order-n matrix and its identity residual.
type accRow struct {
	N        int     `json:"n"`
	Residual float64 `json:"residual"`
	Pass     bool    `json:"pass"`
}

func accRows() ([]accRow, error) {
	var rows []accRow
	for _, order := range []int{64, 128, 256} {
		a := mrinverse.Random(order, int64(order))
		opts := mrinverse.DefaultOptions(4)
		opts.NB = maxInt(16, order/8)
		inv, _, err := mrinverse.Invert(a, opts)
		if err != nil {
			return nil, fmt.Errorf("acc n=%d: %w", order, err)
		}
		res := mrinverse.Residual(a, inv)
		rows = append(rows, accRow{N: order, Residual: res, Pass: res <= 1e-5})
	}
	return rows, nil
}

func acc(bool, int, int) {
	header("Section 7.2: numerical accuracy (real runs, this machine)")
	rows, err := accRows()
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		status := "PASS"
		if !r.Pass {
			status = "FAIL"
		}
		fmt.Printf("n=%4d  max|I-MM⁻¹| = %-10.3g (< 1e-5: %s)\n", r.N, r.Residual, status)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// nbRow is one bound value of the Section 5 tuning sweep on the paper's
// cluster (model): the pipeline time, its leaf time and its job count.
type nbRow struct {
	NB              int     `json:"nb"`
	PipelineSeconds float64 `json:"pipeline_seconds"`
	Jobs            int     `json:"jobs"`
	pipeline, leaf  time.Duration
}

// nbSweep is the tuning sweep and the model's optimal bound value.
type nbSweep struct {
	OptimalNB int     `json:"optimal_nb"`
	Rows      []nbRow `json:"rows"`
}

// nbOrder is the sweep's matrix order (the paper's M4).
const nbOrder = 102400

func nbTable() nbSweep {
	c := costmodel.NewCluster(costmodel.Medium, 64)
	var rows []nbRow
	for cand := 400; cand <= 25600; cand *= 2 {
		t := costmodel.OursTime(c, nbOrder, cand, costmodel.AllOpts)
		rows = append(rows, nbRow{
			NB: cand, PipelineSeconds: t.Seconds(), Jobs: mrinverse.PipelineJobs(nbOrder, cand),
			pipeline: t, leaf: costmodel.LeafTime(costmodel.Medium, cand),
		})
	}
	return nbSweep{OptimalNB: costmodel.OptimalNB(c, nbOrder), Rows: rows}
}

func nbTune(bool, int, int) {
	header("Section 5: bound-value (nb) tuning on the paper's cluster (model)")
	sweep := nbTable()
	fmt.Printf("%-8s %-12s %-12s %s\n", "nb", "pipeline", "leaf time", "jobs")
	for _, r := range sweep.Rows {
		fmt.Printf("%-8d %-12s %-12s %d\n", r.NB,
			costmodel.FormatDuration(r.pipeline), costmodel.FormatDuration(r.leaf), r.Jobs)
	}
	fmt.Printf("optimal nb = %d (paper used %d)\n", sweep.OptimalNB, workload.PaperNB)
	fmt.Println("--- sensitivity to job-launch latency (Section 7.2's faster-launching claim) ---")
	for _, launch := range []time.Duration{60 * time.Second, 30 * time.Second, 5 * time.Second, time.Second} {
		cl := costmodel.Cluster{Node: costmodel.Medium, Nodes: 64, JobLaunch: launch}
		opt := costmodel.OptimalNB(cl, nbOrder)
		fmt.Printf("launch %-4s -> optimal nb %-6d pipeline %s\n",
			launch, opt, costmodel.FormatDuration(costmodel.OursTime(cl, nbOrder, opt, costmodel.AllOpts)))
	}
}

// engineRow is the Section 8 engine chooser's pick for one order on the
// paper's cluster.
type engineRow struct {
	Order  int    `json:"order"`
	Engine string `json:"engine"`
	Reason string `json:"reason"`
}

func engineRows() []engineRow {
	c := costmodel.NewCluster(costmodel.Medium, 64)
	var rows []engineRow
	for _, order := range []int{800, 20480, 102400} {
		choice := costmodel.ChooseEngine(c, order, workload.PaperNB)
		rows = append(rows, engineRow{Order: order, Engine: string(choice.Engine), Reason: choice.Reason})
	}
	return rows
}

func engines(measure bool, n, nb int) {
	header("Section 8: adaptive engine selection (model + execution)")
	for _, r := range engineRows() {
		fmt.Printf("n=%-7d -> %-10s %s\n", r.Order, r.Engine, r.Reason)
	}
	if !measure {
		return
	}
	a := mrinverse.Random(n, seedBase+4)
	inv, choice, err := mrinverse.AutoInvert(a, mrinverse.ClusterSpec{Nodes: 16}, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed %s on this machine for n=%d; residual %.2g\n",
		choice.Engine, n, mrinverse.Residual(a, inv))
}

// sparkResult is one real n=256 inversion by the Spark-style engine and
// by the MapReduce pipeline. Fields are declared in key order, so the
// JSON keys come out sorted, as they do for the map-shaped payloads.
type sparkResult struct {
	MapReduceBytesRead int64   `json:"mapreduce_bytes_read"`
	MapReduceSeconds   float64 `json:"mapreduce_seconds"`
	N                  int     `json:"n"`
	SparkResidual      float64 `json:"spark_residual"`
	SparkSeconds       float64 `json:"spark_seconds"`
}

func sparkRun() (sparkResult, error) {
	const n = 256
	a := mrinverse.Random(n, seedBase+5)
	start := time.Now()
	sparkInv, err := mrinverse.InvertSpark(a, 4, 64)
	if err != nil {
		return sparkResult{}, err
	}
	sparkSec := time.Since(start).Seconds()
	opts := mrinverse.DefaultOptions(4)
	opts.NB = 64
	start = time.Now()
	_, rep, err := mrinverse.Invert(a, opts)
	if err != nil {
		return sparkResult{}, err
	}
	return sparkResult{
		MapReduceBytesRead: rep.FS.BytesRead,
		MapReduceSeconds:   time.Since(start).Seconds(),
		N:                  n,
		SparkResidual:      mrinverse.Residual(a, sparkInv),
		SparkSeconds:       sparkSec,
	}, nil
}

func sparkExp(bool, int, int) {
	header("Section 8: Spark-style in-memory engine (real run, this machine)")
	r, err := sparkRun()
	if err != nil {
		log.Fatal(err)
	}
	ms := func(sec float64) time.Duration {
		return time.Duration(sec * float64(time.Second)).Round(time.Millisecond)
	}
	fmt.Printf("n=%d: spark %-12v (no DFS traffic)   mapreduce %-12v (%d HDFS bytes read)\n",
		r.N, ms(r.SparkSeconds), ms(r.MapReduceSeconds), r.MapReduceBytesRead)
	fmt.Printf("spark residual %.2g\n", r.SparkResidual)
}
