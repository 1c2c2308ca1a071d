// matinv inverts a matrix file through the MapReduce pipeline, printing
// the run report and the Section 7.2 residual check.
//
//	matinv -in a.bin -out inv.bin -nodes 8 -nb 128
//	matinv -in a.txt -engine local        # single-node Algorithm 1
//	matinv -in a.bin -engine scalapack    # the MPI baseline (f1 x f2 process grid)
//
// Disable individual Section 6 optimizations with -no-separate-files,
// -no-block-wrap, -no-transpose-u.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"sort"
	"strings"

	mrinverse "repro"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// printLayout renders the Figure 4 HDFS tree: directories with file
// counts and sizes.
func printLayout(p *core.Pipeline) {
	dirs := map[string]struct {
		files int
		bytes int64
	}{}
	for _, path := range p.FS.List("") {
		dir := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			dir = path[:i]
		}
		sz, _ := p.FS.Size(path)
		e := dirs[dir]
		e.files++
		e.bytes += sz
		dirs[dir] = e
	}
	names := make([]string, 0, len(dirs))
	for d := range dirs {
		names = append(names, d)
	}
	sort.Strings(names)
	fmt.Println("HDFS layout (Figure 4):")
	for _, d := range names {
		e := dirs[d]
		depth := strings.Count(d, "/")
		fmt.Printf("  %s%-*s %3d files %10d bytes\n", strings.Repeat("  ", depth), 30-2*depth, d, e.files, e.bytes)
	}
}

func main() {
	in := flag.String("in", "", "input matrix file (.txt = text format)")
	out := flag.String("out", "", "optional output file for the inverse")
	engine := flag.String("engine", "mapreduce", "mapreduce | local | scalapack | spark | auto")
	nodes := flag.Int("nodes", 8, "simulated cluster nodes (m0) / MPI ranks")
	nb := flag.Int("nb", 512, "bound value for the MapReduce pipeline")
	blockSize := flag.Int("block", 128, "ScaLAPACK distribution block size")
	noSep := flag.Bool("no-separate-files", false, "disable the Section 6.1 optimization")
	noWrap := flag.Bool("no-block-wrap", false, "disable the Section 6.2 optimization")
	noTrans := flag.Bool("no-transpose-u", false, "disable the Section 6.3 optimization")
	stream := flag.Bool("stream", false, "stream factors in row bands during inversion (bounded task memory)")
	multiply := flag.String("multiply", "", "multiply strategy: single-round | replicated | space-round | auto (empty = single-round)")
	rho := flag.Int("rho", 0, "replication / round parameter for the multi-round strategies (0 derives it)")
	mulMem := flag.Int64("multiply-memory", 0, "per-reducer byte budget for the space-round strategy (0 = uncapped)")
	showLayout := flag.Bool("show-layout", false, "print the Figure 4 HDFS directory tree after a mapreduce run")
	showJobs := flag.Bool("show-jobs", false, "print the per-job breakdown after a mapreduce run")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file of the run (view in chrome://tracing or ui.perfetto.dev)")
	showMetrics := flag.Bool("metrics", false, "print the metrics registry after the run")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "usage: matinv -in <matrix file> [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	a, err := mrinverse.ReadMatrixFile(*in)
	if err != nil {
		log.Fatalf("read %s: %v", *in, err)
	}
	fmt.Printf("read %dx%d matrix from %s\n", a.Rows, a.Cols, *in)

	var tracer *obs.Tracer
	var metrics *obs.Registry
	if *traceOut != "" {
		tracer = obs.New()
	}
	if *showMetrics {
		metrics = obs.NewRegistry()
	}

	var inv *matrix.Dense
	start := time.Now()
	switch *engine {
	case "mapreduce":
		opts := mrinverse.DefaultOptions(*nodes)
		opts.NB = *nb
		opts.SeparateFiles = !*noSep
		opts.BlockWrap = !*noWrap
		opts.TransposeU = !*noTrans
		opts.StreamingInversion = *stream
		opts.MultiplyRho = *rho
		opts.MultiplyMemory = *mulMem
		if *multiply == "auto" {
			choice := costmodel.ChooseMultiply(costmodel.NewCluster(costmodel.Medium, opts.Nodes),
				a.Rows, a.Cols, a.Rows, float64(*mulMem))
			choice.Apply(&opts)
			opts.MultiplyMemory = *mulMem
			fmt.Printf("multiply auto selected %s (rho %d): %s\n", choice.Strategy, choice.Rho, choice.Reason)
		} else {
			opts.Multiply = core.MultiplyStrategy(*multiply)
		}
		p, perr := core.NewPipeline(opts)
		if perr != nil {
			log.Fatal(perr)
		}
		p.Tracer = tracer
		p.Metrics = metrics
		var rep *mrinverse.Report
		inv, rep, err = p.Invert(a)
		if err == nil {
			fmt.Printf("pipeline: %d jobs (depth %d), %d map / %d reduce tasks, grid %dx%d\n",
				rep.JobsRun, rep.Depth, rep.MapTasks, rep.ReduceTasks, rep.F1, rep.F2)
			fmt.Printf("HDFS: wrote %d bytes, read %d bytes, %d files\n",
				rep.FS.BytesWritten, rep.FS.BytesRead, rep.FS.FilesCreated)
			if *showJobs {
				for _, j := range rep.Jobs {
					fmt.Printf("  job %-24s map=%-3d reduce=%-3d failures=%d\n",
						j.Name, j.MapTasks, j.ReduceTasks, j.Failures)
				}
			}
			if *showLayout {
				printLayout(p)
			}
		}
	case "local":
		inv, err = mrinverse.InvertLocal(a)
	case "spark":
		inv, err = mrinverse.InvertSpark(a, *nodes, *nb)
		if err == nil {
			fmt.Println("spark engine: intermediates cached in memory, lineage fault tolerance")
		}
	case "auto":
		var choice mrinverse.EngineChoice
		inv, choice, err = mrinverse.AutoInvert(a, mrinverse.ClusterSpec{Nodes: *nodes}, *nb)
		if err == nil {
			fmt.Printf("auto selected %s: %s\n", choice.Engine, choice.Reason)
		}
	case "scalapack":
		var st *mrinverse.ScaLAPACKStats
		inv, st, err = mrinverse.InvertScaLAPACK(a, mrinverse.ScaLAPACKConfig{Procs: *nodes, BlockSize: *blockSize, Tracer: tracer, Metrics: metrics})
		if err == nil {
			fmt.Printf("MPI: %d messages, %d bytes transferred\n", st.Messages, st.BytesTransferred)
		}
	default:
		log.Fatalf("unknown engine %q", *engine)
	}
	if err != nil {
		log.Fatalf("invert: %v", err)
	}
	fmt.Printf("inverted in %v; residual max|I-AA⁻¹| = %.3g\n",
		time.Since(start).Round(time.Millisecond), mrinverse.Residual(a, inv))

	if tracer != nil {
		spans := tracer.Snapshot()
		f, ferr := os.Create(*traceOut)
		if ferr != nil {
			log.Fatalf("create %s: %v", *traceOut, ferr)
		}
		if werr := obs.WriteChromeTrace(f, spans); werr != nil {
			log.Fatalf("write trace: %v", werr)
		}
		if cerr := f.Close(); cerr != nil {
			log.Fatalf("close %s: %v", *traceOut, cerr)
		}
		fmt.Printf("wrote %d spans to %s (open in chrome://tracing or ui.perfetto.dev)\n", len(spans), *traceOut)
		if root := obs.Root(spans); root != nil {
			if cp, cerr := obs.ComputeCriticalPath(spans, root.ID); cerr == nil {
				fmt.Print(cp.String())
			}
		}
	}
	if metrics != nil {
		fmt.Print(metrics.String())
	}

	if *out != "" {
		if err := mrinverse.WriteMatrixFile(*out, inv); err != nil {
			log.Fatalf("write %s: %v", *out, err)
		}
		fmt.Printf("wrote inverse to %s\n", *out)
	}
}
