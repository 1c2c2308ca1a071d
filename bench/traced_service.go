package main

import (
	"math"
	"time"

	"repro/internal/obs"
)

// Registry readers. The name is a parameter so that every call site below
// passes a constant, which is what mrlint's obsnames rule checks.
func counterOf(reg *obs.Registry, name string) float64 { return float64(reg.Counter(name).Value()) }

func histogramOf(reg *obs.Registry, name string) (sumMS, count float64) {
	s := reg.Histogram(name).Snapshot()
	return msOf(s.Sum), float64(s.Count)
}

// shardCounts is a reading of the counters a shard's registry keeps for
// the layers under it. serve.New always creates that registry, so reading
// it attaches no hook.
type shardCounts map[string]float64

func readShard(s *service) shardCounts {
	reg := s.fleet.Shard(0).Metrics()
	c := shardCounts{
		"jobs":        counterOf(reg, "mapreduce.jobs"),
		"tasks":       counterOf(reg, "mapreduce.map_tasks") + counterOf(reg, "mapreduce.reduce_tasks"),
		"written":     counterOf(reg, "dfs.bytes_written"),
		"read":        counterOf(reg, "dfs.bytes_read"),
		"transferred": counterOf(reg, "dfs.bytes_transferred"),
		"read_ops":    counterOf(reg, "dfs.read_ops"),
		"write_ops":   counterOf(reg, "dfs.write_ops"),
		"evictions":   counterOf(reg, "serve.cache_evictions"),
		"probes":      counterOf(reg, "incr.probes"),
		"probe_hits":  counterOf(reg, "incr.probe_hits"),
		"updates":     counterOf(reg, "incr.updates"),
		"fallbacks":   counterOf(reg, "incr.fallbacks"),
	}
	c["queue_ms"], c["queue_n"] = histogramOf(reg, "serve.queue_wait")
	c["pipeline_ms"], c["pipeline_n"] = histogramOf(reg, "serve.pipeline_latency")
	c["slot_wait_ms"], _ = histogramOf(reg, "serve.slot_wait")
	return c
}

// since returns the counts accumulated after an earlier reading.
func (c shardCounts) since(before shardCounts) shardCounts {
	d := shardCounts{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

// tracedService runs the slice, then the pair and the replay, for a
// service workload.
func tracedService(w workloadSpec, seed int64, ops int, slice time.Duration, tr *obs.Tracer) (*tracedResult, error) {
	out := &tracedResult{values: map[string]float64{}}
	if err := serviceSlice(w, seed, slice, out); err != nil {
		return nil, err
	}
	if err := servicePairAndReplay(w, seed, ops, tr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// serviceSlice drives the workload as the end-to-end run does — its real
// client count, hooks nil — and reads what only concurrent clients show:
// the source split, queueing, slot waits, the far tail, runtime cost.
func serviceSlice(w workloadSpec, seed int64, slice time.Duration, out *tracedResult) error {
	tb, err := setUp(w, seed)
	if err != nil {
		return err
	}
	defer tb.close()
	meter := newRuntimeMeter()
	before := readShard(tb.svc)
	meter.start()
	ph := tb.run(newLimit(0, slice))
	meter.stop()
	d := readShard(tb.svc).since(before)

	v := out.values
	out.attempted, out.failed = len(ph.ops), ph.failures()
	lat := ph.latencies()
	out.p50MS = percentile(lat, 0.5)
	v["http.op_p99_ms"] = percentile(lat, 0.99)
	bySource := map[string][]float64{}
	for _, op := range ph.ops {
		if op.failed == "" {
			bySource[op.source] = append(bySource[op.source], op.ms)
		}
	}
	for _, src := range []string{"cache", "dedup", "incremental", "pipeline"} {
		v["serve.source_"+src+"_frac"] = float64(len(bySource[src])) / math.Max(1, float64(len(lat)))
		if src != "dedup" {
			v["serve.p50_ms_"+src] = median(bySource[src])
		}
	}
	n := math.Max(1, float64(len(ph.ops)))
	v["mapreduce.slot_wait_ms_per_op"] = d["slot_wait_ms"] / n
	v["serve.cache_evictions_per_op"] = d["evictions"] / n
	if d["queue_n"] > 0 {
		v["serve.queue_wait_ms_mean"] = d["queue_ms"] / d["queue_n"]
	}
	if d["pipeline_n"] > 0 {
		v["serve.pipeline_ms_mean"] = d["pipeline_ms"] / d["pipeline_n"]
	}
	meter.perOp(v, len(ph.ops))
	return nil
}

// lane is one of the four fresh fleets the pair and the replay send the
// same request to.
type lane struct {
	how via
	svc *service
	cl  *client
	ph  phase
}

// The lanes. plain against traced is the pair; plain (path A), fleet (B)
// and shard (C) are the replay.
const (
	laneTraced = iota // over HTTP, the tracer attached
	lanePlain         // over HTTP, hooks nil
	laneFleet         // Fleet.Do
	laneShard         // Fleet.Shard(0).Do
)

// servicePairAndReplay sends one request stream from one client to four
// fresh fleets, round by round. The traced fleet leads each round and owns
// the draw, so its operation span covers body build, round trip, decode and
// verify back to back; the other three rotate behind it so that none is
// always the one to run on warm caches.
func servicePairAndReplay(w workloadSpec, seed int64, ops int, tr *obs.Tracer, out *tracedResult) error {
	lanes := []*lane{{how: viaHTTP}, {how: viaHTTP}, {how: viaFleet}, {how: viaShard}}
	for i, ln := range lanes {
		var hook *obs.Tracer
		if i == laneTraced {
			hook = tr
		}
		svc, err := startService(w, hook)
		if err != nil {
			return err
		}
		defer svc.close()
		ln.svc, ln.cl = svc, newClient()
		defer ln.cl.close()
	}
	rs := newReqStream(w, seed)
	var masterLUs float64
	round := func(i int, timed bool) {
		var root *obs.Span
		if timed {
			root = tr.StartSpan("bench.op", obs.KindPipeline)
			root.SetAttr("id", int64(i))
		}
		build := root.Child("bench.body_build", obs.KindOp)
		r := rs.next()
		build.Finish()
		for k := range lanes {
			at := laneTraced
			if k > 0 {
				at = 1 + (i+k)%(len(lanes)-1)
			}
			ln := lanes[at]
			res, got := ln.svc.exchange(ln.cl, r, ln.how, root)
			if res.failed == "" {
				res.failed = verify(r, got, root)
			}
			if at == laneTraced {
				root.Finish()
				root = nil
			}
			if !timed {
				continue
			}
			ln.ph.ops = append(ln.ph.ops, res)
			if at == laneShard && got.rep != nil {
				masterLUs += float64(got.rep.MasterLUs)
			}
		}
	}
	for i := 0; i < w.warmOps; i++ {
		round(i, false)
	}
	beforePlain, beforeShard := readShard(lanes[lanePlain].svc), readShard(lanes[laneShard].svc)
	for i := 0; i < ops; i++ {
		round(i, true)
	}
	c := readShard(lanes[lanePlain].svc).since(beforePlain)
	cs := readShard(lanes[laneShard].svc).since(beforeShard)
	for _, ln := range lanes {
		out.attempted += len(ln.ph.ops)
		out.failed += ln.ph.failures()
	}

	v, per := out.values, float64(ops)
	v["core.master_lus_per_op"] = masterLUs / per
	v["mapreduce.jobs_per_op"] = c["jobs"] / per
	v["mapreduce.tasks_per_op"] = c["tasks"] / per
	v["dfs.bytes_written_per_op"] = c["written"] / per
	v["dfs.bytes_read_per_op"] = c["read"] / per
	v["dfs.bytes_transferred_per_op"] = c["transferred"] / per
	v["dfs.read_ops_per_op"] = c["read_ops"] / per
	v["dfs.write_ops_per_op"] = c["write_ops"] / per
	v["incr.updates_per_op"] = c["updates"] / per
	v["incr.fallbacks_per_op"] = c["fallbacks"] / per
	if c["probes"] > 0 {
		v["incr.probe_hit_frac"] = c["probe_hits"] / c["probes"]
	}
	if w.kind == kindLstsq {
		v["tsqr.jobs_per_op"] = c["jobs"] / per
	}
	var reqBytes, respBytes float64
	for _, op := range lanes[lanePlain].ph.ops {
		reqBytes += float64(op.reqBytes)
		respBytes += float64(op.respBytes)
	}
	v["http.req_bytes_per_op"] = reqBytes / per
	v["http.resp_bytes_per_op"] = respBytes / per
	v["obs.tracing_overhead_frac"] = overhead(&lanes[lanePlain].ph, &lanes[laneTraced].ph)
	v["http.self_ms_per_op"], _ = extraMS(&lanes[laneFleet].ph, &lanes[lanePlain].ph)
	v["fed.self_ms_per_op"], _ = extraMS(&lanes[laneShard].ph, &lanes[laneFleet].ph)
	// Server.Do time on the operations that ran something, minus what the
	// shard's own histograms say the queue and the pipeline took.
	var ran, ranMS float64
	for _, op := range lanes[laneShard].ph.ops {
		if op.failed == "" && (op.source == "pipeline" || op.source == "incremental") {
			ran++
			ranMS += op.ms
		}
	}
	if ran > 0 {
		v["serve.self_ms_per_op"] = (ranMS - cs["pipeline_ms"] - cs["queue_ms"]) / ran
	}
	return nil
}
