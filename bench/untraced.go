package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// testbed is a workload set up and ready to time: inputs generated, the
// options or the fleet built, warm-up done.
type testbed struct {
	w    workloadSpec
	seed int64
	b    *batch     // batch workloads
	svc  *service   // service workloads
	rs   *reqStream // service workloads: continues after the warm-up
}

// setUp is everything between process start and the first timed
// operation: input generation, fleet or cluster construction, warm-up.
func setUp(w workloadSpec, seed int64) (*testbed, error) {
	tb := &testbed{w: w, seed: seed}
	if !w.service() {
		tb.b = newBatch(w, seed)
		return tb, tb.b.warm()
	}
	svc, err := startService(w, nil)
	if err != nil {
		return nil, err
	}
	tb.svc, tb.rs = svc, newReqStream(w, seed)
	if err := svc.warm(tb.rs, w.warmOps); err != nil {
		svc.close()
		return nil, err
	}
	return tb, nil
}

// run is the workload's timed closed loop, every hook nil.
func (tb *testbed) run(lim *limit) *phase {
	if tb.b != nil {
		return tb.b.run(lim)
	}
	return tb.svc.run(tb.rs, lim, tb.w.clients(), tb.seed)
}

func (tb *testbed) close() {
	if tb.svc != nil {
		tb.svc.close()
	}
}

// setupRounds is how many times a run sets the workload up; setup_s is
// the median. One set-up is a fraction of a second, too short to repeat
// within its bound on its own.
const setupRounds = 5

// setUpRepeatedly sets the workload up setupRounds times, keeps the last
// testbed, and returns each round's duration in seconds. The first round
// is measured from process start.
func setUpRepeatedly(w workloadSpec, seed int64) (*testbed, []float64, error) {
	var secs []float64
	t0 := processStart
	for round := 0; ; round++ {
		tb, err := setUp(w, seed)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if round == setupRounds-1 {
			// The discarded rounds' garbage is the benchmark's, not the
			// workload's: collect it before anything is timed.
			runtime.GC()
			return tb, secs, nil
		}
		tb.close()
		t0 = time.Now()
	}
}

// runUntraced measures the end-to-end metrics: one timed run of the given
// length with every tracer and registry hook nil.
func runUntraced(w workloadSpec, seed int64, seconds float64) (*resultLine, error) {
	tb, setups, err := setUpRepeatedly(w, seed)
	if err != nil {
		return nil, err
	}
	defer tb.close()
	ph := tb.run(newLimit(0, time.Duration(seconds*float64(time.Second))))

	lat := ph.latencies()
	values := map[string]float64{
		"op_p50_ms":        percentile(lat, 0.50),
		"op_tail_ms":       percentile(lat, w.tail),
		"throughput_ops_s": ph.throughput(),
		"setup_s":          median(setups),
	}
	describe(os.Stderr, w, ph, lat, values)
	return emit(endToEnd, values, len(ph.ops), ph.failures())
}

// describe prints the run for a reader: the tail's percentile and how
// many samples support it, and why any operation failed.
func describe(out io.Writer, w workloadSpec, ph *phase, lat []float64, v map[string]float64) {
	fmt.Fprintf(out, "%s: %d ops (%d failed) by %d client(s) in %.2fs: p50 %.3f ms, p%.0f %.3f ms (%d samples beyond), %.1f ops/s, set-up %.3f s\n",
		w.name, len(ph.ops), ph.failures(), w.clients(), ph.wall.Seconds(), v["op_p50_ms"],
		w.tail*100, v["op_tail_ms"], beyond(len(lat), w.tail), v["throughput_ops_s"], v["setup_s"])
	if n := beyond(len(lat), w.tail); n < minBeyond {
		can := "no percentile from p80 up"
		if p, ok := supportedTail(len(lat)); ok {
			can = fmt.Sprintf("p%.0f", p*100)
		}
		fmt.Fprintf(out, "%s: warning: only %d samples beyond p%.0f, op_tail_ms needs %d; %d samples support %s\n",
			w.name, n, w.tail*100, minBeyond, len(lat), can)
	}
	shown := 0
	for _, op := range ph.ops {
		if op.failed != "" && shown < 5 {
			fmt.Fprintf(out, "%s: failed operation: %s\n", w.name, op.failed)
			shown++
		}
	}
}
