package costmodel

import (
	"strings"
	"testing"
)

func TestServingClusterSpec(t *testing.T) {
	c := ServingCluster(8)
	if c.Nodes != 8 {
		t.Fatalf("nodes = %d, want 8", c.Nodes)
	}
	if c.Node.Name != "sim" {
		t.Fatalf("node name = %q, want sim", c.Node.Name)
	}
	if c.JobLaunch != 0 {
		t.Fatalf("in-process cluster must have zero job-launch latency, got %v", c.JobLaunch)
	}
	// Memory-speed "network": well above any real NIC in the Medium spec.
	if c.Node.NetBW <= Medium.NetBW {
		t.Fatalf("sim NetBW %v not faster than Medium %v", c.Node.NetBW, Medium.NetBW)
	}
}

func TestSeqQRTimeScalesAsMN2(t *testing.T) {
	base := seqQRTime(Medium, 1000, 10)
	if base <= 0 {
		t.Fatal("non-positive sequential QR estimate")
	}
	if d := seqQRTime(Medium, 2000, 10); d < 2*base*9/10 || d > 2*base*11/10 {
		t.Fatalf("doubling m: %v vs base %v, want ~2x", d, base)
	}
	if d := seqQRTime(Medium, 1000, 20); d < 4*base*9/10 || d > 4*base*11/10 {
		t.Fatalf("doubling n: %v vs base %v, want ~4x", d, base)
	}
}

func TestTSQRTimeClampsBlocks(t *testing.T) {
	c := ServingCluster(8)
	if d0, d1 := tsqrTime(c, 4096, 16, 0), tsqrTime(c, 4096, 16, 1); d0 != d1 {
		t.Fatalf("b=0 (%v) must clamp to b=1 (%v)", d0, d1)
	}
	// More blocks shrink the parallel map term but grow the stacked
	// reduce; at a fixed tall shape a few blocks beat one.
	if d8, d1 := tsqrTime(c, 1<<20, 16, 8), tsqrTime(c, 1<<20, 16, 1); d8 >= d1 {
		t.Fatalf("8 blocks (%v) not faster than 1 (%v) on a very tall input", d8, d1)
	}
}

func TestChooseQRAspectGate(t *testing.T) {
	c := ServingCluster(8)
	// rows/cols < MinTallRatio is pinned sequential regardless of model.
	ch := ChooseQR(c, 100, 40)
	if ch.Strategy != QRSequential {
		t.Fatalf("near-square chose %s (%s)", ch.Strategy, ch.Reason)
	}
	if !strings.Contains(ch.Reason, "aspect ratio") {
		t.Fatalf("gate reason missing aspect ratio: %q", ch.Reason)
	}
	if len(ch.Predicted) != 2 {
		t.Fatalf("predictions missing: %v", ch.Predicted)
	}
}

func TestChooseQRCrossover(t *testing.T) {
	c := ServingCluster(8)
	// Past the 8-node crossover (m ~ 17n) TSQR must win; this is the
	// shape the serving smoke mixes use.
	tall := ChooseQR(c, 256, 8)
	if tall.Strategy != QRTSQR {
		t.Fatalf("256x8 on 8 nodes chose %s (%s)", tall.Strategy, tall.Reason)
	}
	if tall.Blocks < 2 || tall.Blocks > 8 {
		t.Fatalf("blocks = %d, want 2..8", tall.Blocks)
	}
	if tall.Predicted[QRTSQR] >= tall.Predicted[QRSequential] {
		t.Fatalf("TSQR chosen but predicted slower: %v", tall.Predicted)
	}
	// Tall enough to pass the gate but below the crossover: sequential.
	mid := ChooseQR(c, 40, 8)
	if mid.Strategy != QRSequential {
		t.Fatalf("40x8 chose %s (%s)", mid.Strategy, mid.Reason)
	}
	if !strings.Contains(mid.Reason, "distribution overhead") {
		t.Fatalf("sequential reason: %q", mid.Reason)
	}
}

func TestChooseQRBlocksBoundedByAspect(t *testing.T) {
	// A 16-node cluster cannot use more row blocks than m/n: each block
	// must itself be at least n rows tall for the local QR to be thin.
	ch := ChooseQR(ServingCluster(16), 48, 8)
	if ch.Blocks != 6 {
		t.Fatalf("blocks = %d, want m/n = 6", ch.Blocks)
	}
	if ch2 := ChooseQR(ServingCluster(0), 256, 8); ch2.Blocks < 1 {
		t.Fatalf("zero-node cluster blocks = %d, want >= 1", ch2.Blocks)
	}
}

func TestChooseQRDeterministic(t *testing.T) {
	c := ServingCluster(8)
	a, b := ChooseQR(c, 192, 6), ChooseQR(c, 192, 6)
	if a.Strategy != b.Strategy || a.Blocks != b.Blocks || a.Reason != b.Reason {
		t.Fatalf("ChooseQR not deterministic: %+v vs %+v", a, b)
	}
}

func TestQROther(t *testing.T) {
	if other(QRTSQR) != QRSequential || other(QRSequential) != QRTSQR {
		t.Fatal("other() does not flip strategies")
	}
}
