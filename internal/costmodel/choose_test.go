package costmodel

import (
	"testing"
	"time"

	"repro/internal/workload"
)

func TestChooseEngineSmallMatrixLocal(t *testing.T) {
	c := NewCluster(Medium, 16)
	choice := ChooseEngine(c, 800, workload.PaperNB)
	if choice.Engine != EngineLocal {
		t.Fatalf("n=800 chose %s (%s)", choice.Engine, choice.Reason)
	}
	if _, ok := choice.Predicted[EngineLocal]; !ok {
		t.Fatal("local prediction missing")
	}
}

func TestChooseEngineHugeMatrixMapReduce(t *testing.T) {
	// M4 on 64 medium nodes: ScaLAPACK is memory-infeasible and the local
	// kernel cannot hold the matrix — the pipeline must win.
	c := NewCluster(Medium, 64)
	choice := ChooseEngine(c, 102400, workload.PaperNB)
	if choice.Engine != EngineMapReduce {
		t.Fatalf("M4 chose %s (%s)", choice.Engine, choice.Reason)
	}
	if _, ok := choice.Predicted[EngineScaLAPACK]; ok {
		t.Fatal("infeasible ScaLAPACK still predicted")
	}
	if _, ok := choice.Predicted[EngineLocal]; ok {
		t.Fatal("80 GB matrix predicted to fit one 3.7 GB node")
	}
}

func TestChooseEngineMidScaleScaLAPACK(t *testing.T) {
	// M1 at modest node counts: the paper's Figure 8 shows ScaLAPACK
	// slightly ahead — the chooser must pick it when feasible and faster.
	c := NewCluster(Medium, 8)
	choice := ChooseEngine(c, 20480, workload.PaperNB)
	if choice.Engine != EngineScaLAPACK {
		t.Fatalf("M1@8 chose %s (%s)", choice.Engine, choice.Reason)
	}
}

func TestChooseEnginePredictionsOrdered(t *testing.T) {
	c := NewCluster(Medium, 16)
	choice := ChooseEngine(c, 32768, workload.PaperNB)
	best := choice.Predicted[choice.Engine]
	for e, tm := range choice.Predicted {
		if tm < best {
			t.Fatalf("%s (%v) beats chosen %s (%v)", e, tm, choice.Engine, best)
		}
	}
	if choice.Reason == "" {
		t.Fatal("empty reason")
	}
}

func TestSingleNodeTime(t *testing.T) {
	if _, ok := singleNodeTime(Medium, 102400); ok {
		t.Fatal("80 GB matrix fits 3.7 GB node?")
	}
	d, ok := singleNodeTime(Medium, 4000)
	if !ok {
		t.Fatal("4000^2 should fit")
	}
	if d <= 0 {
		t.Fatalf("time = %v", d)
	}
}

func TestOptimalNBNearPaperChoice(t *testing.T) {
	// On the paper's cluster (medium instances, ~30 s job launches), the
	// optimal bound value should land in the same regime as their 3200.
	c := NewCluster(Medium, 64)
	nb := OptimalNB(c, 102400)
	if nb < 1600 || nb > 12800 {
		t.Fatalf("OptimalNB = %d, want the paper's regime around 3200", nb)
	}
}

func TestOptimalNBBalancesLeafAndLaunch(t *testing.T) {
	// Section 5: nb is right when a leaf decomposition costs about one
	// job launch. At the model's optimum the two should be within an
	// order of magnitude.
	c := NewCluster(Medium, 64)
	nb := OptimalNB(c, 102400)
	leaf := LeafTime(Medium, nb)
	ratio := leaf.Seconds() / c.JobLaunch.Seconds()
	if ratio < 0.1 || ratio > 10 {
		t.Fatalf("leaf %v vs launch %v (ratio %.2f): not balanced", leaf, c.JobLaunch, ratio)
	}
}

func TestOptimalNBTracksLaunchOverhead(t *testing.T) {
	// Section 7.2: "our analysis of how finely to decompose the
	// computation holds even under faster job launching" — the optimum nb
	// shifts down as launches get cheaper (smaller leaves become
	// affordable) but never collapses, and the balance rule (leaf time ~
	// launch time) keeps holding.
	n := 102400
	prev := 1 << 30
	for _, launch := range []time.Duration{60 * time.Second, 30 * time.Second, 5 * time.Second, 1 * time.Second} {
		c := Cluster{Node: Medium, Nodes: 64, JobLaunch: launch}
		nb := OptimalNB(c, n)
		if nb > prev {
			t.Fatalf("launch %v: nb %d grew when launches got cheaper (prev %d)", launch, nb, prev)
		}
		prev = nb
		leaf := LeafTime(Medium, nb).Seconds()
		if ratio := leaf / launch.Seconds(); ratio < 0.05 || ratio > 20 {
			t.Fatalf("launch %v: leaf/launch = %.2f, balance rule broken", launch, ratio)
		}
	}
	if prev >= 3200 {
		t.Fatalf("1s launches should push nb below the 30s optimum, got %d", prev)
	}
}

func TestLeafTimeGrowsCubically(t *testing.T) {
	a := LeafTime(Medium, 1600)
	b := LeafTime(Medium, 3200)
	ratio := b.Seconds() / a.Seconds()
	if ratio < 7.9 || ratio > 8.1 {
		t.Fatalf("doubling nb scaled leaf time by %.2f, want 8", ratio)
	}
}

func TestExtremeNBIsWorse(t *testing.T) {
	c := NewCluster(Medium, 64)
	n := 102400
	best := OursTime(c, n, OptimalNB(c, n), AllOpts)
	tiny := OursTime(c, n, 200, AllOpts)   // job-launch dominated
	huge := OursTime(c, n, 51200, AllOpts) // master-serial dominated
	if tiny <= best || huge <= best {
		t.Fatalf("optimum %v not better than extremes (tiny %v, huge %v)", best, tiny, huge)
	}
	_ = time.Second
}
