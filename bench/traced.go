package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/dfs"
	"repro/internal/obs"
)

// The traced run yields the per-layer metrics. It is a process of its own,
// so it cannot disturb the end-to-end numbers, and it measures each layer
// from outside: through the hooks the program already exports
// (Pipeline.Tracer/Metrics, serve.Config.Tracer, every shard's registry,
// core.Report, response headers) and through direct calls into the
// layers' public functions. It has four parts:
//
//	slice   (service only) a short untraced run with the workload's real
//	        client count: source split, queueing, slot waits, runtime cost;
//	pair    one client, every operation done with hooks off and with hooks
//	        on: exact counts, the span ledger, the tracing overhead;
//	replay  (service only) the same operations through Fleet.Do and
//	        Server.Do on fresh fleets: http and fed self time by difference;
//	probes  timed direct calls into each layer.

// Shares of -seconds the parts may use; the pair and replay are sized in
// operations (workloadSpec.tracedOps at the default -seconds) instead.
const (
	sliceShare = 0.3
	probeShare = 0.03 // per probe
)

// runTraced measures every per-layer metric of one workload.
func runTraced(w workloadSpec, seed int64, seconds float64, traceDir string) (*resultLine, error) {
	values := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		values[d.name] = 0 // a layer the workload does not use reports 0
	}
	ops := int(math.Max(4, math.Round(float64(w.tracedOps)*seconds/defaultSeconds)))
	tr := obs.New()
	var res *tracedResult
	var err error
	if w.service() {
		res, err = tracedService(w, seed, ops, time.Duration(sliceShare*seconds*float64(time.Second)), tr)
	} else {
		res, err = tracedBatch(w, seed, ops, tr)
	}
	if err != nil {
		return nil, err
	}
	for k, v := range res.values {
		values[k] = v
	}
	probes, err := runProbes(w, seed, time.Duration(probeShare*seconds*float64(time.Second)))
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	for k, v := range probes {
		values[k] = v
	}
	spans := tr.Snapshot()
	res.ledger = fold(spans)
	ledgerMetrics(res.ledger, values)
	computed(values, res.p50MS)
	if err := writeTrace(traceDir, w.name, spans); err != nil {
		fmt.Fprintln(os.Stderr, "bench: trace not written:", err)
	}
	printLedger(os.Stderr, w, res, values)
	return emit(perLayer, values, res.attempted, res.failed)
}

// tracedResult is what the workload-specific part of a traced run hands
// back.
type tracedResult struct {
	values    map[string]float64
	attempted int
	failed    int
	p50MS     float64 // the workload's op_p50_ms as this process saw it
	ledger    *ledger
}

// ledgerMetrics turns the fold into per-operation metrics.
func ledgerMetrics(l *ledger, v map[string]float64) {
	if l.ops == 0 {
		return
	}
	n := float64(l.ops)
	v["core.master_ms_per_op"] = l.perOp(rowCoreMaster)
	v["core.self_ms_per_op"] = l.perOp(rowCoreSelf)
	v["mapreduce.job_self_ms_per_op"] = l.perOp(rowJob)
	v["mapreduce.map_ms_per_op"] = l.phaseMS["map"] / n
	v["mapreduce.shuffle_ms_per_op"] = l.phaseMS["shuffle"] / n
	v["mapreduce.reduce_ms_per_op"] = l.phaseMS["reduce"] / n
	v["mapreduce.task_busy_ms_per_op"] = l.taskBusyMS / n
	v["mapreduce.task_max_over_median_x"] = median(l.taskSkew)
	v["mapreduce.shuffled_kvs_per_op"] = float64(l.shuffledKVs) / n
	v["ledger.unattributed_frac"] = l.unattributed()
}

// computed fills the metrics derived from other metrics; README.md labels
// them "computed".
func computed(v map[string]float64, p50MS float64) {
	if local := v["lu.invert_local_ms"]; local > 0 {
		v["core.over_local_x"] = p50MS / local
	}
	// Bytes at the probe rates. Reads that crossed the network are what
	// the transfer counter holds beyond the replication copies of writes.
	written, read := v["dfs.bytes_written_per_op"], v["dfs.bytes_read_per_op"]
	remote := math.Max(0, v["dfs.bytes_transferred_per_op"]-float64(dfs.DefaultReplication-1)*written)
	remote = math.Min(remote, read)
	var ms float64
	for _, term := range [][2]float64{
		{written, v["dfs.writematrix_mb_s"]},
		{read - remote, v["dfs.readmatrix_local_mb_s"]},
		{remote, v["dfs.readmatrix_remote_mb_s"]},
	} {
		if term[1] > 0 {
			ms += term[0] / (term[1] * 1e6) * 1e3
		}
	}
	v["dfs.est_ms_per_op"] = ms
}

// tracedBatch runs the one-client pair for a batch workload: operation i
// once with hooks nil and once recording into tr and a registry,
// alternating which goes first.
func tracedBatch(w workloadSpec, seed int64, ops int, tr *obs.Tracer) (*tracedResult, error) {
	b := newBatch(w, seed)
	if err := b.warm(); err != nil {
		return nil, err
	}
	met := obs.NewRegistry()
	meter := newRuntimeMeter()
	var off, on phase
	var jobs, tasks, lus int
	var fsStats dfs.Stats
	var slotWait time.Duration
	plain := func(i int64) {
		meter.start()
		res, rep := b.op(i, nil, nil)
		meter.stop()
		off.ops = append(off.ops, res)
		if rep != nil {
			jobs += rep.JobsRun
			tasks += rep.MapTasks + rep.ReduceTasks
			lus += rep.MasterLUs
			slotWait += rep.SlotWait
			fsStats.BytesWritten += rep.FS.BytesWritten
			fsStats.BytesRead += rep.FS.BytesRead
			fsStats.BytesTransferred += rep.FS.BytesTransferred
			fsStats.ReadOps += rep.FS.ReadOps
			fsStats.WriteOps += rep.FS.WriteOps
		}
	}
	hooked := func(i int64) {
		res, _ := b.op(i, tr, met)
		on.ops = append(on.ops, res)
	}
	for i := int64(0); i < int64(ops); i++ {
		if i%2 == 0 {
			plain(i)
			hooked(i)
		} else {
			hooked(i)
			plain(i)
		}
	}
	failed := off.failures() + on.failures()
	for _, why := range b.fullChecks() {
		if why != "" {
			failed++
		}
	}
	n := float64(ops)
	v := map[string]float64{
		"mapreduce.jobs_per_op":         float64(jobs) / n,
		"mapreduce.tasks_per_op":        float64(tasks) / n,
		"core.master_lus_per_op":        float64(lus) / n,
		"mapreduce.slot_wait_ms_per_op": msOf(slotWait) / n,
		"dfs.bytes_written_per_op":      float64(fsStats.BytesWritten) / n,
		"dfs.bytes_read_per_op":         float64(fsStats.BytesRead) / n,
		"dfs.bytes_transferred_per_op":  float64(fsStats.BytesTransferred) / n,
		"dfs.read_ops_per_op":           float64(fsStats.ReadOps) / n,
		"dfs.write_ops_per_op":          float64(fsStats.WriteOps) / n,
		"obs.tracing_overhead_frac":     overhead(&off, &on),
	}
	meter.perOp(v, ops)
	return &tracedResult{values: v, attempted: 2 * ops, failed: failed,
		p50MS: percentile(off.latencies(), 0.5)}, nil
}

// extraMS is the median time by which one of with's operations exceeded
// the same operation in base, over the operations that succeeded on both,
// and base's median time on them. Operations are paired and medians taken
// because single operations scatter by more than the layers being
// separated cost.
func extraMS(base, with *phase) (extra, baseMS float64) {
	var diffs, bases []float64
	for i := range base.ops {
		if i < len(with.ops) && base.ops[i].failed == "" && with.ops[i].failed == "" {
			diffs = append(diffs, with.ops[i].ms-base.ops[i].ms)
			bases = append(bases, base.ops[i].ms)
		}
	}
	return median(diffs), median(bases)
}

// overhead is the share by which a hooked operation took longer than the
// same operation with hooks nil.
func overhead(off, on *phase) float64 {
	extra, base := extraMS(off, on)
	if base == 0 {
		return 0
	}
	return extra / base
}

// perOp writes the runtime metrics for n metered operations.
func (m *runtimeMeter) perOp(v map[string]float64, n int) {
	if n == 0 {
		return
	}
	v["runtime.alloc_mb_per_op"] = float64(m.allocBytes) / 1e6 / float64(n)
	v["runtime.mallocs_per_op"] = float64(m.mallocs) / float64(n)
	if m.totalCPU > 0 {
		v["runtime.gc_cpu_frac"] = m.gcCPU / m.totalCPU
	}
	v["runtime.peak_heap_mb"] = float64(m.heapSys) / 1e6
}

// writeTrace stores the traced run's spans as Chrome trace-event JSON.
func writeTrace(dir, workload string, spans []obs.Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printLedger shows the fold for a reader: where one traced operation's
// wall clock went.
func printLedger(out io.Writer, w workloadSpec, res *tracedResult, v map[string]float64) {
	l := res.ledger
	if l.ops == 0 {
		return
	}
	fmt.Fprintf(out, "%s: ledger of %d traced operations, %.3f ms each (%d program spans unplaced)\n",
		w.name, l.ops, l.wallMS/float64(l.ops), l.orphans)
	rows := make([]string, 0, len(l.selfMS))
	for row := range l.selfMS {
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return l.selfMS[rows[i]] > l.selfMS[rows[j]] })
	for _, row := range rows {
		fmt.Fprintf(out, "  %-18s %9.3f ms/op  %5.1f%%\n", row, l.perOp(row), 100*l.selfMS[row]/l.wallMS)
	}
	fmt.Fprintf(out, "  tasks busy %.3f ms/op, slowest/median task %.2fx, tracing overhead %+.1f%%\n",
		v["mapreduce.task_busy_ms_per_op"], v["mapreduce.task_max_over_median_x"], 100*v["obs.tracing_overhead_frac"])
}
