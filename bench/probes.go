package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dfs"
	"repro/internal/fed"
	"repro/internal/incr"
	"repro/internal/lu"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/serve"
	"repro/internal/tsqr"
	"repro/internal/workload"
)

// Probes are timed direct calls into one layer's public functions, at the
// shapes the workloads use: the rate a layer achieves on its own, to set
// against the time the ledger says it gets inside a request.

const (
	// probeCalls ends a probe once this many calls are timed, or the
	// time budget is spent, whichever comes first.
	probeCalls = 20
	// probeMinCalls are timed however long a call takes.
	probeMinCalls = 3
	// probeGrain is the shortest interval a probe times: faster calls are
	// timed in batches so the clock's resolution does not show.
	probeGrain = 20 * time.Microsecond
	probeOrder = 256 // kernel probes: 256x256 float64 = 512 KiB
)

// prober times calls and collects the resulting metrics.
type prober struct {
	budget time.Duration // per probe
	values map[string]float64
	err    error
}

// time returns the median duration of one call of f. The first call warms
// caches and sizes the batch; it is not counted.
func (p *prober) time(f func() error) time.Duration {
	if p.err != nil {
		return 0
	}
	t0 := time.Now()
	if p.err = f(); p.err != nil {
		return 0
	}
	batch := 1
	if first := time.Since(t0); first < probeGrain {
		batch = int(probeGrain/(first+1)) + 1
	}
	var per []float64
	start := time.Now()
	for len(per) < probeMinCalls || (len(per) < probeCalls && time.Since(start) < p.budget) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if p.err = f(); p.err != nil {
				return 0
			}
		}
		per = append(per, float64(time.Since(t0))/float64(batch))
	}
	return time.Duration(median(per))
}

// rate records work per second for a probe doing `work` units per call.
func (p *prober) rate(name string, work float64, f func() error) time.Duration {
	d := p.time(f)
	if d > 0 {
		p.values[name] = work / d.Seconds()
	}
	return d
}

// per records the median call time in the given unit.
func (p *prober) per(name string, unit time.Duration, f func() error) time.Duration {
	d := p.time(f)
	p.values[name] = float64(d) / float64(unit)
	return d
}

// sink keeps results alive so the compiler cannot drop a probed call.
var sink any

// runProbes measures every probe metric. The values do not depend on the
// workload except lu.invert_local_ms, which inverts the workload's own
// inputs locally: the floor a planner could reach.
func runProbes(w workloadSpec, seed int64, budget time.Duration) (map[string]float64, error) {
	p := &prober{budget: budget, values: map[string]float64{}}
	ctx := context.Background()
	const n = probeOrder
	cube := float64(n) * float64(n) * float64(n)
	a, b := workload.Random(n, seed), workload.Random(n, seed+1)

	// matrix: the two GEMM kernels and the binary codec.
	p.rate("matrix.mul_gflops", 2*cube/1e9, func() (err error) { sink, err = matrix.Mul(a, b); return })
	bT := b.Transpose()
	kernel := p.rate("matrix.multransb_gflops", 2*cube/1e9, func() (err error) { sink, err = matrix.MulTransB(a, bT); return })
	mb := float64(matrix.BinarySize(n, n)) / 1e6
	var enc bytes.Buffer
	enc.Grow(int(matrix.BinarySize(n, n)))
	p.rate("matrix.writebinary_mb_s", mb, func() error { enc.Reset(); return matrix.WriteBinary(&enc, a) })
	p.rate("matrix.readbinary_mb_s", mb, func() (err error) { sink, err = matrix.ReadBinary(bytes.NewReader(enc.Bytes())); return })

	// lu: factorization and the two triangular kernels the jobs run.
	dd := workload.DiagonallyDominant(n, seed)
	p.rate("lu.decompose_gflops", 2*cube/3/1e9, func() (err error) { sink, err = lu.Decompose(dd); return })
	fact, err := lu.Decompose(dd)
	if err != nil {
		return nil, err
	}
	lower, upperT := fact.L(), fact.U().Transpose()
	p.rate("lu.lowerinverse_gflops", cube/3/1e9, func() error { sink = lu.LowerInverse(lower, true); return nil })
	p.rate("lu.solverowsuppertrans_gflops", cube/1e9, func() (err error) { sink, err = lu.SolveRowsUpperTrans(upperT, b); return })
	p.values["lu.invert_local_ms"] = p.localInvertMS(w, seed)

	// core: one distributed multiply against the kernel it wraps.
	opts := core.DefaultOptions(clusterNodes)
	pipe, err := core.NewPipeline(opts)
	if err != nil {
		return nil, err
	}
	job := p.per("core.multiply_job_ms", time.Millisecond, func() (err error) { sink, err = pipe.Multiply(a, b); return })
	if kernel > 0 {
		p.values["core.multiply_over_kernel_x"] = float64(job) / float64(kernel)
	}

	// mapreduce: what a job costs with no work in it, and the shuffle's
	// copy rate.
	fs := dfs.New(clusterNodes, dfs.DefaultReplication)
	cluster := mapreduce.NewCluster(fs, clusterNodes)
	splits := make([]mapreduce.InputSplit, clusterNodes)
	for i := range splits {
		splits[i].ID = i
	}
	noReduce := func(*mapreduce.TaskContext, string, [][]byte, mapreduce.Emitter) error { return nil }
	empty := &mapreduce.Job{Name: "probe-empty", Splits: splits, NumReduce: clusterNodes, Reduce: noReduce,
		Map: func(*mapreduce.TaskContext, mapreduce.InputSplit, mapreduce.Emitter) error { return nil }}
	p.per("mapreduce.empty_job_ms", time.Millisecond, func() (err error) { sink, err = cluster.Run(empty); return })
	const kvsPerMap, kvBytes = 64, 16 << 10
	value := make([]byte, kvBytes)
	shuffle := &mapreduce.Job{Name: "probe-shuffle", Splits: splits, NumReduce: clusterNodes, Reduce: noReduce,
		Map: func(_ *mapreduce.TaskContext, split mapreduce.InputSplit, emit mapreduce.Emitter) error {
			for j := 0; j < kvsPerMap; j++ {
				emit.Emit(strconv.Itoa(split.ID*kvsPerMap+j), value)
			}
			return nil
		}}
	p.rate("mapreduce.shuffle_mb_s", float64(clusterNodes*kvsPerMap*kvBytes)/1e6,
		func() (err error) { sink, err = cluster.Run(shuffle); return })

	// dfs: one 512 KiB matrix written with 3x replication, read back by a
	// replica holder and by a node that holds none.
	const path = "probe/m"
	p.rate("dfs.writematrix_mb_s", mb, func() error { return fs.WriteMatrix(path, a) })
	holders, err := fs.Replicas(path)
	if err != nil {
		return nil, err
	}
	remote := 0
	for holds(holders, remote) {
		remote++
	}
	p.rate("dfs.readmatrix_local_mb_s", mb, func() (err error) { sink, err = fs.ReadMatrixFrom(path, holders[0]); return })
	p.rate("dfs.readmatrix_remote_mb_s", mb, func() (err error) { sink, err = fs.ReadMatrixFrom(path, remote); return })

	// serve and fed: a cache hit, the request digest, ring placement.
	fleet, err := fed.New(fed.Config{Shards: 1, Shard: serve.Config{
		Concurrency: serveConcurrency, QueueDepth: serveQueue, CacheBytes: serveCacheBytes, Opts: serveOpts()}})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	hot := serve.Request{A: workload.DiagonallyDominant(64, seed)}
	p.per("serve.do_hit_us", time.Microsecond, func() (err error) { sink, err = fleet.Shard(0).Do(ctx, hot); return })
	p.rate("serve.keyfor_mb_s", float64(64*64*8)/1e6, func() error { sink = serve.KeyFor(hot, serveOpts()); return nil })
	p.per("fed.home_us", time.Microsecond, func() error { sink, _ = fleet.Home(fed.Request{Request: hot}); return nil })

	// incr: a probe that misses against a full index, one rank-2 update,
	// and the guardrail.
	index := incr.NewBaseIndex(incr.DefaultMaxBases)
	for i := 0; i < incr.DefaultMaxBases; i++ {
		base := workload.DiagonallyDominant(64, seed+int64(i)+1)
		inv, err := lu.Invert(base)
		if err != nil {
			return nil, err
		}
		index.Add(strconv.Itoa(i), base, inv)
	}
	stranger := workload.DiagonallyDominant(64, seed+1000)
	p.per("incr.probe_us", time.Microsecond, func() error { sink, _, _ = index.Probe(stranger, 16); return nil })
	base := workload.DiagonallyDominant(96, seed)
	baseInv, err := lu.Invert(base)
	if err != nil {
		return nil, err
	}
	next := workload.MutateRows(base, 2, seed)
	rows, ok := incr.DiffRowsExact(base, next, 24)
	if !ok {
		return nil, fmt.Errorf("probe: rank-2 mutation not detected")
	}
	u, v := incr.RowDelta(base, next, rows)
	var updated *matrix.Dense
	p.per("incr.update_ms", time.Millisecond, func() (err error) {
		updated, err = incr.Update(baseInv, u, v, incr.DefaultCondMax)
		return
	})
	p.per("incr.guard_us", time.Microsecond, func() error { return incr.Guard(next, updated, 0, 0) })

	// tsqr: a whole least-squares solve, two jobs, at the workload's
	// smallest and largest shapes.
	engine := &tsqr.Engine{FS: fs, Cluster: cluster}
	for _, shape := range []struct {
		name       string
		rows, cols int
	}{{"tsqr.lstsq_ms_256x8", 256, 8}, {"tsqr.lstsq_ms_1024x16", 1024, 16}} {
		ta, tb := workload.RandomRect(shape.rows, shape.cols, seed), workload.RandomRect(shape.rows, 1, seed+1)
		p.per(shape.name, time.Millisecond, func() (err error) {
			sink, _, err = engine.LeastSquaresCtx(ctx, ta, tb, tsqr.Config{Blocks: clusterNodes, Root: "probe/tsqr"})
			fs.DeleteTree("probe/tsqr")
			return
		})
	}

	// costmodel: what consulting a planner on the request path would cost.
	sim := costmodel.ServingCluster(clusterNodes)
	p.per("costmodel.chooseengine_ns", time.Nanosecond, func() error { sink = costmodel.ChooseEngine(sim, 64, serveNB); return nil })
	p.per("costmodel.chooseqr_ns", time.Nanosecond, func() error { sink = costmodel.ChooseQR(sim, 256, 8); return nil })

	return p.values, p.err
}

func holds(nodes []int, node int) bool {
	for _, n := range nodes {
		if n == node {
			return true
		}
	}
	return false
}

// localInvertMS is lu.Invert on the workload's own inputs: the batch
// input for the batch workloads, the mix-weighted orders for /invert
// traffic. Least-squares traffic has no local inverse; it reports 0.
func (p *prober) localInvertMS(w workloadSpec, seed int64) float64 {
	switch w.kind {
	case kindBatch:
		in := batchInput(w, seed, 0)
		return msOf(p.time(func() (err error) { sink, err = lu.Invert(in); return }))
	case kindInvert:
		var sum, weight float64
		for _, e := range w.mix.Entries {
			in := workload.DiagonallyDominant(e.Order, seed)
			sum += e.Weight * msOf(p.time(func() (err error) { sink, err = lu.Invert(in); return }))
			weight += e.Weight
		}
		return sum / math.Max(weight, 1e-12)
	}
	return 0
}
