package main

import "repro/internal/workload"

// This file is the benchmark's vocabulary: the workloads and the metric
// names a later change quotes ("metric M on workload W"). BENCHMARK.json
// at the repo root carries the same names for the driver; defs_test.go
// fails if the two drift apart.

// kind selects the caller a workload models.
type kind int

const (
	// kindBatch is the paper's user: one caller hands mrinverse.Invert a
	// matrix and waits for the inverse.
	kindBatch kind = iota
	// kindInvert is a service client POSTing square matrices to /invert.
	kindInvert
	// kindLstsq is a service client POSTing tall systems to /lstsq.
	kindLstsq
)

// The cluster shape every workload runs on, and cmd/matserve's defaults
// for the service workloads.
const (
	clusterNodes     = 8
	serveNB          = 64
	serveConcurrency = 2
	serveQueue       = 16
	serveCacheBytes  = 64 << 20
	serviceClients   = 2
	// batchInputs is how many seeded matrices a batch caller rotates over.
	batchInputs = 4
)

// workloadSpec is one set of inputs the benchmark runs.
type workloadSpec struct {
	name string
	why  string
	kind kind

	// Batch workloads: order and bound value.
	n, nb int

	// Service workloads: the request mix, and whether the shard runs the
	// incremental (SMW) path.
	mix  workload.Mix
	incr bool

	// tail is the percentile op_tail_ms reports: the highest of
	// p99/p95/p90/p80 that kept at least ten samples beyond it and
	// repeated between sizing runs (README, "Tail percentile").
	tail float64
	// warmOps operations run during set-up, before anything is timed.
	warmOps int
	// tracedOps is the length of the one-client traced run at the default
	// -seconds; it scales with -seconds, so two runs of the same command
	// line issue the same operations and their counts compare exactly.
	tracedOps int
}

func (w workloadSpec) service() bool { return w.kind != kindBatch }

func (w workloadSpec) clients() int {
	if w.service() {
		return serviceClients
	}
	return 1
}

func mustMix(s string) []workload.MixEntry {
	entries, err := workload.ParseMix(s)
	if err != nil {
		panic(err)
	}
	return entries
}

var workloads = []workloadSpec{
	{
		name: "invert-large", kind: kindBatch, n: 512, nb: 64,
		why:  "paper regime: n=512 nb=64, 9 jobs; GEMM/LU kernels and dfs bytes dominate, per-job cost does not",
		tail: 0.75, warmOps: 1, tracedOps: 6,
	},
	{
		name: "invert-deep", kind: kindBatch, n: 128, nb: 8,
		why:  "nb too small (paper s5): n=128 nb=8, 17 jobs; job set-up, dfs round trips and master LUs dominate, kernels do not",
		tail: 0.95, warmOps: 8, tracedOps: 60,
	},
	{
		name: "serve-cold", kind: kindInvert,
		mix:  workload.Mix{Entries: mustMix("24:5,40:3,64:2")},
		why:  "unique small /invert requests: every one misses the cache and runs the full pipeline; the planner target",
		tail: 0.95, warmOps: 128, tracedOps: 320,
	},
	{
		name: "serve-hot", kind: kindInvert, incr: true,
		mix: workload.Mix{Entries: mustMix("64:1"), HotKeys: 4, HotProb: 0.75,
			DupProb: 0.2, DeltaProb: 0.12, DeltaRank: 2},
		why:  "hot keys, duplicates and rank-2 deltas: the median is a cache hit, the tail a queued pipeline miss; incr on",
		tail: 0.95, warmOps: 256, tracedOps: 480,
	},
	{
		name: "serve-tall", kind: kindLstsq,
		mix:  workload.Mix{Entries: mustMix("256x8:3,192x6:2,512x8:1")},
		why:  "unique tall /lstsq systems through TSQR: same mapreduce/dfs/serve layers used differently; guards refactors",
		tail: 0.95, warmOps: 256, tracedOps: 640,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricDef names one number the benchmark prints.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the base's median by which an end-to-end
	// metric may worsen before -compare (and the driver) call it a
	// regression. Per-layer metrics have none.
	bound float64
	// exact marks a [count] metric: it must repeat exactly between two
	// runs of the same command line, so -compare lists any difference.
	exact bool
}

// End-to-end metrics, measured with every tracer and registry hook nil.
// The ISSUE's fifth metric, fail_frac, is the contract's failed/attempted
// pair: a metric that is 0 on every run cannot carry a relative bound.
var endToEnd = []metricDef{
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.10},
	{name: "op_tail_ms", unit: "ms", better: "lower", bound: 0.15},
	{name: "throughput_ops_s", unit: "ops/s", better: "higher", bound: 0.10},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// Per-layer metrics, from the traced run. README.md has the table of
// sources and of which end-to-end metric each should move.
var perLayer = []metricDef{
	{name: "matrix.mul_gflops", unit: "gflop/s", better: "higher"},
	{name: "matrix.multransb_gflops", unit: "gflop/s", better: "higher"},
	{name: "matrix.writebinary_mb_s", unit: "MB/s", better: "higher"},
	{name: "matrix.readbinary_mb_s", unit: "MB/s", better: "higher"},

	{name: "lu.decompose_gflops", unit: "gflop/s", better: "higher"},
	{name: "lu.lowerinverse_gflops", unit: "gflop/s", better: "higher"},
	{name: "lu.solverowsuppertrans_gflops", unit: "gflop/s", better: "higher"},
	{name: "lu.invert_local_ms", unit: "ms", better: "lower"},

	{name: "core.over_local_x", unit: "x", better: "lower"},
	{name: "core.master_ms_per_op", unit: "ms", better: "lower"},
	{name: "core.master_lus_per_op", unit: "count", better: "lower", exact: true},
	{name: "core.self_ms_per_op", unit: "ms", better: "lower"},
	{name: "core.multiply_job_ms", unit: "ms", better: "lower"},
	{name: "core.multiply_over_kernel_x", unit: "x", better: "lower"},

	{name: "mapreduce.jobs_per_op", unit: "count", better: "lower", exact: true},
	{name: "mapreduce.tasks_per_op", unit: "count", better: "lower", exact: true},
	{name: "mapreduce.shuffled_kvs_per_op", unit: "count", better: "lower", exact: true},
	{name: "mapreduce.job_self_ms_per_op", unit: "ms", better: "lower"},
	{name: "mapreduce.map_ms_per_op", unit: "ms", better: "lower"},
	{name: "mapreduce.shuffle_ms_per_op", unit: "ms", better: "lower"},
	{name: "mapreduce.reduce_ms_per_op", unit: "ms", better: "lower"},
	{name: "mapreduce.task_busy_ms_per_op", unit: "ms", better: "lower"},
	{name: "mapreduce.task_max_over_median_x", unit: "x", better: "lower"},
	{name: "mapreduce.slot_wait_ms_per_op", unit: "ms", better: "lower"},
	{name: "mapreduce.empty_job_ms", unit: "ms", better: "lower"},
	{name: "mapreduce.shuffle_mb_s", unit: "MB/s", better: "higher"},

	{name: "dfs.bytes_written_per_op", unit: "bytes", better: "lower", exact: true},
	{name: "dfs.bytes_read_per_op", unit: "bytes", better: "lower", exact: true},
	{name: "dfs.bytes_transferred_per_op", unit: "bytes", better: "lower"},
	{name: "dfs.read_ops_per_op", unit: "count", better: "lower", exact: true},
	{name: "dfs.write_ops_per_op", unit: "count", better: "lower", exact: true},
	{name: "dfs.writematrix_mb_s", unit: "MB/s", better: "higher"},
	{name: "dfs.readmatrix_local_mb_s", unit: "MB/s", better: "higher"},
	{name: "dfs.readmatrix_remote_mb_s", unit: "MB/s", better: "higher"},
	{name: "dfs.est_ms_per_op", unit: "ms", better: "lower"},

	{name: "serve.source_cache_frac", unit: "fraction", better: "higher"},
	{name: "serve.source_dedup_frac", unit: "fraction", better: "higher"},
	{name: "serve.source_incremental_frac", unit: "fraction", better: "higher"},
	{name: "serve.source_pipeline_frac", unit: "fraction", better: "lower"},
	{name: "serve.p50_ms_cache", unit: "ms", better: "lower"},
	{name: "serve.p50_ms_incremental", unit: "ms", better: "lower"},
	{name: "serve.p50_ms_pipeline", unit: "ms", better: "lower"},
	{name: "serve.queue_wait_ms_mean", unit: "ms", better: "lower"},
	{name: "serve.pipeline_ms_mean", unit: "ms", better: "lower"},
	{name: "serve.cache_evictions_per_op", unit: "count", better: "lower"},
	{name: "serve.self_ms_per_op", unit: "ms", better: "lower"},
	{name: "serve.do_hit_us", unit: "us", better: "lower"},
	{name: "serve.keyfor_mb_s", unit: "MB/s", better: "higher"},

	{name: "http.self_ms_per_op", unit: "ms", better: "lower"},
	{name: "http.req_bytes_per_op", unit: "bytes", better: "lower", exact: true},
	{name: "http.resp_bytes_per_op", unit: "bytes", better: "lower", exact: true},
	{name: "http.op_p99_ms", unit: "ms", better: "lower"},
	{name: "fed.self_ms_per_op", unit: "ms", better: "lower"},
	{name: "fed.home_us", unit: "us", better: "lower"},

	{name: "incr.probe_hit_frac", unit: "fraction", better: "higher", exact: true},
	{name: "incr.updates_per_op", unit: "count", better: "higher", exact: true},
	{name: "incr.fallbacks_per_op", unit: "count", better: "lower", exact: true},
	{name: "incr.probe_us", unit: "us", better: "lower"},
	{name: "incr.update_ms", unit: "ms", better: "lower"},
	{name: "incr.guard_us", unit: "us", better: "lower"},

	{name: "tsqr.jobs_per_op", unit: "count", better: "lower", exact: true},
	{name: "tsqr.lstsq_ms_256x8", unit: "ms", better: "lower"},
	{name: "tsqr.lstsq_ms_1024x16", unit: "ms", better: "lower"},

	{name: "costmodel.chooseengine_ns", unit: "ns", better: "lower"},
	{name: "costmodel.chooseqr_ns", unit: "ns", better: "lower"},

	{name: "obs.tracing_overhead_frac", unit: "fraction", better: "lower"},

	{name: "runtime.alloc_mb_per_op", unit: "MB", better: "lower"},
	{name: "runtime.mallocs_per_op", unit: "count", better: "lower"},
	{name: "runtime.gc_cpu_frac", unit: "fraction", better: "lower"},
	{name: "runtime.peak_heap_mb", unit: "MB", better: "lower"},

	{name: "ledger.unattributed_frac", unit: "fraction", better: "lower"},
}
