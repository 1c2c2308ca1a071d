package costmodel

import (
	"fmt"
	"time"
)

// QR strategy selection for the tall-and-skinny workload family: the
// serving layer asks, per /lstsq or /pinv request, whether the two-round
// MapReduce TSQR pipeline (internal/tsqr) or a single-node dense
// Householder QR should run. The decision is a pure function of the
// request shape and cluster size, so equal digests always take the same
// path and cached results stay consistent with fresh computations.

// ServingCluster calibrates the model for matserve's in-process
// simulated cluster: zero job-launch latency and memory-speed "network"
// (the shuffle is a byte-slice copy), leaving the flop terms — parallel
// local QRs vs one sequential factorization — to decide the strategy.
func ServingCluster(nodes int) Cluster {
	node := Medium
	node.Name = "sim"
	node.NetBW = 4e9
	node.DiskBW = 4e9
	return Cluster{Node: node, Nodes: nodes}
}

// QRStrategy identifies one of the two QR execution paths.
type QRStrategy string

const (
	QRSequential QRStrategy = "sequential"
	QRTSQR       QRStrategy = "tsqr"
)

// MinTallRatio is the aspect-ratio gate: below rows/cols of 4 the input
// is not meaningfully "tall and skinny" — the stacked-R reduce step
// (blocks*n x n) approaches the size of the original problem and the
// distribution overhead cannot pay for itself.
const MinTallRatio = 4

// QRChoice is the outcome of QR strategy selection.
type QRChoice struct {
	Strategy QRStrategy
	Reason   string
	// Blocks is the row-block count the TSQR pipeline would use (also
	// filled in for sequential choices, for visibility).
	Blocks    int
	Predicted map[QRStrategy]time.Duration
}

// seqQRTime models one dense Householder QR of an m x n matrix on the
// master's optimized kernel: ~2mn^2 flops.
func seqQRTime(node NodeSpec, m, n int) time.Duration {
	flops := 2 * float64(m) * float64(n) * float64(n)
	return secs(flops / node.MasterFlops)
}

// tsqrTime models the two-round direct-TSQR pipeline on cluster c with b
// row blocks: parallel local QRs of (m/b) x n blocks on the workers, the
// stacked (b*n) x n reduce factorization, one apply round of the same
// parallel shape, the shuffle transfer of b R factors, and two job
// launches.
func tsqrTime(c Cluster, m, n, b int) time.Duration {
	if b < 1 {
		b = 1
	}
	perBlock := 2 * float64(m) / float64(b) * float64(n) * float64(n)
	stacked := 2 * float64(b) * float64(n) * float64(n) * float64(n)
	transfer := float64(b) * float64(n) * float64(n) * bytesPerElem / c.Node.NetBW
	compute := (2*perBlock)/c.Node.Flops + stacked/c.Node.MasterFlops + transfer
	return secs(compute) + 2*c.JobLaunch
}

// ChooseQR picks the QR execution path for an m x n least-squares or
// pseudo-inverse request on cluster c. Near-square inputs are pinned to
// the sequential kernel by the aspect-ratio gate; tall ones take
// whichever path the calibrated model predicts faster.
func ChooseQR(c Cluster, m, n int) QRChoice {
	b := c.Nodes
	if b < 1 {
		b = 1
	}
	if n > 0 {
		if maxb := m / n; b > maxb {
			b = maxb
		}
	}
	if b < 1 {
		b = 1
	}
	pred := map[QRStrategy]time.Duration{
		QRSequential: seqQRTime(c.Node, m, n),
		QRTSQR:       tsqrTime(c, m, n, b),
	}
	if n > 0 && m/n < MinTallRatio {
		return QRChoice{
			Strategy: QRSequential,
			Blocks:   b,
			Reason: fmt.Sprintf("aspect ratio %d/%d below %d: not tall-and-skinny; single-node QR",
				m, n, MinTallRatio),
			Predicted: pred,
		}
	}
	best := QRSequential
	if pred[QRTSQR] < pred[QRSequential] {
		best = QRTSQR
	}
	reason := fmt.Sprintf("predicted %s vs %s for %dx%d on %d nodes",
		FormatDuration(pred[best]), FormatDuration(pred[other(best)]), m, n, c.Nodes)
	if best == QRTSQR {
		reason = "row blocks factor in parallel and only R factors shuffle; " + reason
	} else {
		reason = "distribution overhead exceeds the parallel speedup at this size; " + reason
	}
	return QRChoice{Strategy: best, Blocks: b, Reason: reason, Predicted: pred}
}

func other(s QRStrategy) QRStrategy {
	if s == QRTSQR {
		return QRSequential
	}
	return QRTSQR
}
