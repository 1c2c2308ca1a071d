package main

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// The [count] metrics are the ones a later change may claim as counts, so
// two runs of the same command line must agree on them exactly.
func TestInvertDeepCountsRepeatExactly(t *testing.T) {
	w, _ := findWorkload("invert-deep")
	w = w.short()
	measure := func() map[string]float64 {
		tr := obs.New()
		res, err := tracedBatch(w, 1, 4, tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Fatalf("%d of %d operations failed", res.failed, res.attempted)
		}
		ledgerMetrics(fold(tr.Snapshot()), res.values)
		return res.values
	}
	first, second := measure(), measure()
	for _, d := range perLayer {
		if d.exact && first[d.name] != second[d.name] {
			t.Errorf("%s: %v then %v", d.name, first[d.name], second[d.name])
		}
	}
	if first["mapreduce.jobs_per_op"] != 17 {
		t.Errorf("jobs per operation = %v, want the 17 of n/nb = 16", first["mapreduce.jobs_per_op"])
	}
	if first["mapreduce.shuffled_kvs_per_op"] == 0 || first["dfs.bytes_written_per_op"] == 0 {
		t.Errorf("counters read zero: %v", first)
	}
}

// Every workload, at test size, through both forms of the driver's run:
// every metric is reported and no operation fails.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		w := w.short()
		t.Run(w.name, func(t *testing.T) {
			tb, err := setUp(w, 2)
			if err != nil {
				t.Fatal(err)
			}
			ph := tb.run(newLimit(6, 0))
			tb.close()
			if len(ph.ops) != 6 || ph.failures() != 0 || ph.wall <= 0 {
				t.Fatalf("%d operations, %d failed, wall %v", len(ph.ops), ph.failures(), ph.wall)
			}
			line, err := runTraced(w, 2, 0.2, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !line.Correct || len(line.Metrics) != len(perLayer) {
				t.Fatalf("correct %v, %d of %d metrics", line.Correct, len(line.Metrics), len(perLayer))
			}
			if w.service() && line.Metrics["mapreduce.jobs_per_op"].Value == 0 && w.name != "serve-hot" {
				t.Errorf("no job ran")
			}
		})
	}
}

func TestLimitStopsOnCountOrTime(t *testing.T) {
	lim := newLimit(3, 0)
	for want := int64(0); want < 3; want++ {
		if i, ok := lim.take(); !ok || i != want {
			t.Fatalf("take = %d, %v; want %d", i, ok, want)
		}
	}
	if _, ok := lim.take(); ok {
		t.Error("a fourth operation was issued")
	}
	lim = newLimit(0, time.Nanosecond)
	time.Sleep(time.Millisecond)
	if _, ok := lim.take(); ok {
		t.Error("an operation was issued after the deadline")
	}
}
