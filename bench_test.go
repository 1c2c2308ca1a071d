package mrinverse

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Section 7), each running the real system at laptop scale and
// reporting the quantities the corresponding artifact plots as custom
// metrics, plus kernel micro-benchmarks. The paper-scale series come from
// `go run repro/cmd/mrbench -exp all`; EXPERIMENTS.md records both.

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dfs"
	"repro/internal/lu"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/qr"
	"repro/internal/scalapack"
	"repro/internal/workload"
)

const (
	benchOrder = 256
	benchNB    = 64
)

func benchOpts(nodes int) Options {
	o := DefaultOptions(nodes)
	o.NB = benchNB
	return o
}

func runPipeline(b *testing.B, a *Matrix, opts Options) *Report {
	b.Helper()
	var rep *Report
	for i := 0; i < b.N; i++ {
		var err error
		_, rep, err = Invert(a, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

// BenchmarkTable1LUTransfer measures the LU-decomposition phase (partition
// + block-LU jobs) and reports measured HDFS traffic per n^2, the paper's
// Table 1 quantities.
func BenchmarkTable1LUTransfer(b *testing.B) {
	a := Random(benchOrder, 10)
	opts := benchOpts(8)
	var written, read int64
	for i := 0; i < b.N; i++ {
		p, err := core.NewPipeline(opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := p.Decompose(a); err != nil {
			b.Fatal(err)
		}
		st := p.FS.Stats()
		written, read = st.BytesWritten, st.BytesRead
	}
	n2 := float64(benchOrder) * float64(benchOrder) * 8
	b.ReportMetric(float64(written)/n2, "writeN2")
	b.ReportMetric(float64(read)/n2, "readN2")
	pred := costmodel.OursLU(benchOrder, opts.Nodes)
	b.ReportMetric(pred.Read/(float64(benchOrder)*float64(benchOrder)), "tableReadN2")
}

// BenchmarkTable1ScaLAPACKTransfer measures the baseline's communication
// volume, Table 1's ScaLAPACK row (2/3 m0 n^2 scaling).
func BenchmarkTable1ScaLAPACKTransfer(b *testing.B) {
	a := Random(benchOrder, 11)
	var st *ScaLAPACKStats
	for i := 0; i < b.N; i++ {
		var err error
		_, st, err = InvertScaLAPACK(a, ScaLAPACKConfig{Procs: 8, BlockSize: 32})
		if err != nil {
			b.Fatal(err)
		}
	}
	n2 := float64(benchOrder) * float64(benchOrder) * 8
	b.ReportMetric(float64(st.BytesTransferred)/n2, "transferN2")
}

// BenchmarkTable2Inversion measures the triangular-inversion/final-output
// phase in isolation: full pipeline minus decomposition-only run.
func BenchmarkTable2Inversion(b *testing.B) {
	a := Random(benchOrder, 12)
	opts := benchOpts(8)
	rep := runPipeline(b, a, opts)
	n2 := float64(benchOrder) * float64(benchOrder) * 8
	b.ReportMetric(float64(rep.FS.BytesWritten)/n2, "totalWriteN2")
	b.ReportMetric(float64(rep.FS.BytesRead)/n2, "totalReadN2")
}

// BenchmarkTable3Jobs verifies and times the job-count law across the
// paper's five matrices (pure pipeline-structure computation).
func BenchmarkTable3Jobs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range workload.Table3 {
			if got := PipelineJobs(s.Order, workload.PaperNB); got != s.Jobs {
				b.Fatalf("%s: %d jobs, want %d", s.Name, got, s.Jobs)
			}
		}
	}
}

// BenchmarkFig6Scaling runs the real pipeline across node counts at fixed
// order — Figure 6's strong-scaling sweep. Simulated nodes share this
// machine's cores, so the interesting metrics are the per-run job and I/O
// accounting; paper-scale times come from the cost model.
func BenchmarkFig6Scaling(b *testing.B) {
	a := Random(benchOrder, 13)
	for _, nodes := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			rep := runPipeline(b, a, benchOpts(nodes))
			b.ReportMetric(float64(rep.JobsRun), "jobs")
			b.ReportMetric(float64(rep.FS.BytesRead), "bytesRead")
		})
	}
}

// BenchmarkFig7SeparateFiles is the Section 6.1 ablation: optimized vs
// master-side combining.
func BenchmarkFig7SeparateFiles(b *testing.B) {
	a := Random(benchOrder, 14)
	for _, sep := range []bool{true, false} {
		name := "separate"
		if !sep {
			name = "combined"
		}
		b.Run(name, func(b *testing.B) {
			opts := benchOpts(8)
			opts.SeparateFiles = sep
			rep := runPipeline(b, a, opts)
			b.ReportMetric(float64(rep.FS.BytesWritten), "bytesWritten")
			b.ReportMetric(float64(rep.LFactorFiles), "factorFiles")
		})
	}
}

// BenchmarkFig7BlockWrap is the Section 6.2 ablation: block-wrap vs naive
// multiplication layout.
func BenchmarkFig7BlockWrap(b *testing.B) {
	a := Random(benchOrder, 15)
	for _, wrap := range []bool{true, false} {
		name := "blockwrap"
		if !wrap {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			opts := benchOpts(16)
			opts.BlockWrap = wrap
			rep := runPipeline(b, a, opts)
			b.ReportMetric(float64(rep.FS.BytesRead), "bytesRead")
		})
	}
}

// BenchmarkFig7TransposeU is the Section 6.3 ablation: transposed vs
// row-major U storage (kernel-level memory locality).
func BenchmarkFig7TransposeU(b *testing.B) {
	a := Random(benchOrder, 16)
	for _, tr := range []bool{true, false} {
		name := "transposed"
		if !tr {
			name = "rowmajor"
		}
		b.Run(name, func(b *testing.B) {
			opts := benchOpts(8)
			opts.TransposeU = tr
			runPipeline(b, a, opts)
		})
	}
}

// BenchmarkFig8OursVsScaLAPACK runs both systems on the same input —
// Figure 8's comparison at laptop scale.
func BenchmarkFig8OursVsScaLAPACK(b *testing.B) {
	a := Random(benchOrder, 17)
	b.Run("mapreduce", func(b *testing.B) {
		runPipeline(b, a, benchOpts(8))
	})
	b.Run("scalapack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := InvertScaLAPACK(a, ScaLAPACKConfig{Procs: 8, BlockSize: 32}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := InvertLocal(a); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSec74FailureRecovery measures the pipeline with injected task
// failures — the Section 7.4 fault-tolerance run.
func BenchmarkSec74FailureRecovery(b *testing.B) {
	a := Random(benchOrder, 18)
	opts := benchOpts(8)
	var failures int
	for i := 0; i < b.N; i++ {
		fs := dfs.New(opts.Nodes, dfs.DefaultReplication)
		cl := mapreduce.NewCluster(fs, opts.Nodes)
		var mu sync.Mutex
		seen := map[string]bool{}
		cl.InjectFailure = func(job string, task, attempt int, isMap bool) error {
			mu.Lock()
			defer mu.Unlock()
			key := fmt.Sprintf("%s/%d/%v", job, task, isMap)
			if attempt == 0 && task == 0 && !seen[key] {
				seen[key] = true
				return errors.New("injected")
			}
			return nil
		}
		p, err := core.NewPipelineOn(opts, fs, cl)
		if err != nil {
			b.Fatal(err)
		}
		inv, rep, err := p.Invert(a)
		if err != nil {
			b.Fatal(err)
		}
		failures = rep.TaskFailures
		if Residual(a, inv) > 1e-7 {
			b.Fatal("bad inverse after failure recovery")
		}
	}
	b.ReportMetric(float64(failures), "recoveredFailures")
}

// --- Kernel micro-benchmarks ---

// BenchmarkOrderScaling sweeps the matrix order at fixed cluster size,
// the n^3 law behind every Figure 6 curve.
func BenchmarkOrderScaling(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := Random(n, int64(n))
			opts := benchOpts(8)
			for i := 0; i < b.N; i++ {
				if _, _, err := Invert(a, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkKernelMul(b *testing.B) {
	x := workload.Random(benchOrder, 20)
	y := workload.Random(benchOrder, 21)
	yT := y.Transpose()
	variants := []struct {
		name string
		fn   func() error
	}{
		{"ikj", func() error { _, err := matrix.Mul(x, y); return err }},
		{"naive-ijk", func() error { _, err := matrix.MulNaiveColumnOrder(x, y); return err }},
		{"transB", func() error { _, err := matrix.MulTransB(x, yT); return err }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := v.fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkKernelLUDecompose(b *testing.B) {
	a := workload.Random(benchOrder, 22)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lu.Decompose(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelTriangularInverse(b *testing.B) {
	a := workload.DiagonallyDominant(benchOrder, 23)
	f, err := lu.Decompose(a)
	if err != nil {
		b.Fatal(err)
	}
	l := f.L()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lu.LowerInverse(l, true)
	}
}

func BenchmarkKernelInverters(b *testing.B) {
	a := workload.Random(128, 24)
	b.Run("lu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lu.Invert(a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("qr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := qr.Invert(a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lu-spd", func(b *testing.B) {
		spd := workload.SPD(128, 24)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := lu.Invert(spd); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scalapack-4p", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := scalapack.Invert(a, scalapack.Config{Procs: 4, BlockSize: 16}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngines compares all execution engines on the same input: the
// HDFS-backed MapReduce pipeline, the Section 8 Spark-style engine, and
// the ScaLAPACK baseline.
func BenchmarkEngines(b *testing.B) {
	a := Random(benchOrder, 25)
	b.Run("mapreduce", func(b *testing.B) {
		runPipeline(b, a, benchOpts(8))
	})
	b.Run("spark", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := InvertSpark(a, 8, benchNB); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scalapack", func(b *testing.B) {
		var st *ScaLAPACKStats
		for i := 0; i < b.N; i++ {
			var err error
			_, st, err = InvertScaLAPACK(a, ScaLAPACKConfig{Procs: 8, BlockSize: 32})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(st.BytesTransferred), "bytesTransferred")
	})
}

// BenchmarkMultiplyJob measures the standalone block-wrap multiplication
// job against its naive layout (Section 6.2 at the job level).
func BenchmarkMultiplyJob(b *testing.B) {
	x := Random(benchOrder, 29)
	y := Random(benchOrder, 30)
	for _, wrap := range []bool{true, false} {
		name := "blockwrap"
		if !wrap {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			opts := DefaultOptions(16)
			opts.BlockWrap = wrap
			var read int64
			for i := 0; i < b.N; i++ {
				p, err := core.NewPipeline(opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.Multiply(x, y); err != nil {
					b.Fatal(err)
				}
				read = p.FS.Stats().BytesRead
			}
			b.ReportMetric(float64(read), "bytesRead")
		})
	}
}

// BenchmarkSolveVsInvert compares solving k right-hand sides directly
// against forming the full inverse — the reason SolveDirect exists.
func BenchmarkSolveVsInvert(b *testing.B) {
	n, k := benchOrder, 4
	a := Random(n, 31)
	rhs := workload.RandomRect(n, k, 32)
	opts := benchOpts(8)
	b.Run("solve-direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SolveDirect(a, rhs, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("invert-then-multiply", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inv, _, err := Invert(a, opts)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := matrix.Mul(inv, rhs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDeterminant times determinant extraction via the pipeline.
func BenchmarkDeterminant(b *testing.B) {
	a := Random(benchOrder, 27)
	opts := benchOpts(8)
	for i := 0; i < b.N; i++ {
		if _, err := Determinant(a, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefine times one Newton-Schulz refinement sweep.
func BenchmarkRefine(b *testing.B) {
	a := workload.DiagonallyDominant(benchOrder, 28)
	inv, err := InvertLocal(a)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Refine(a, inv, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNBTuning times the Section 5 bound-value optimization sweep.
func BenchmarkNBTuning(b *testing.B) {
	c := costmodel.NewCluster(costmodel.Medium, 64)
	var nb int
	for i := 0; i < b.N; i++ {
		nb = costmodel.OptimalNB(c, 102400)
	}
	b.ReportMetric(float64(nb), "optimalNB")
}

// BenchmarkModelSeries times the paper-scale series generation (cheap; it
// exists so `-bench=.` exercises every artifact generator end to end).
func BenchmarkModelSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(costmodel.Fig6()) == 0 || len(costmodel.Fig7()) == 0 || len(costmodel.Fig8()) == 0 || len(costmodel.Sec74()) == 0 {
			b.Fatal("empty series")
		}
	}
}
