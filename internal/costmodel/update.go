package costmodel

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// Update-vs-full routing for the incremental inversion path
// (internal/incr): when a serve-layer cache miss finds a base inverse
// a rank-k delta away, should the request take the O(kn²)
// Sherman–Morrison–Woodbury update on the master, or just rerun the
// full O(n³) pipeline? Like ChooseQR, the decision is a pure function
// of (n, k, cluster, load) so identical requests always take the same
// path.

// UpdateStrategy identifies one of the incremental-path outcomes.
type UpdateStrategy string

const (
	// UpdateFull rejects the incremental path: run the full pipeline.
	UpdateFull UpdateStrategy = "full"
	// UpdateSequential applies SMW on the master.
	UpdateSequential UpdateStrategy = "sequential"
)

// MaxUpdateFraction gates the delta rank: beyond k > n/MaxUpdateFraction
// the ~4kn² update flops close in on the pipeline's ~2n³ while the
// capacitance conditioning risk grows with k, so the update is refused
// outright.
const MaxUpdateFraction = 4

// simJobLaunch stands in for Cluster.JobLaunch when the model runs
// against the in-process simulated cluster: ServingCluster sets
// JobLaunch to zero, so ChooseUpdate charges the full pipeline this
// per-job orchestration floor (spinning up the map/reduce attempts and
// pushing operands through the simulated DFS) on each of its jobs.
// Calibrated against the measured per-job cost of serving-scale
// multiplies (a 256-order multiply job runs ~50ms in-process, far above
// its flops).
const simJobLaunch = 20 * time.Millisecond

// updateFlops is the SMW arithmetic: two n×k passes against A⁻¹
// (2·2kn²), the rank-k correction (2kn²), and the k×k capacitance
// solve (~(2/3)k³ + 2k²n, kept for honesty though it never decides).
func updateFlops(n, k int) float64 {
	nf, kf := float64(n), float64(k)
	return 6*kf*nf*nf + 2*kf*kf*nf + (2.0/3.0)*kf*kf*kf
}

// SequentialUpdateTime models the SMW update on the master kernel.
func SequentialUpdateTime(node NodeSpec, n, k int) time.Duration {
	return secs(updateFlops(n, k) / node.MasterFlops)
}

// UpdateChoice is the outcome of update-vs-full selection.
type UpdateChoice struct {
	Strategy  UpdateStrategy
	Reason    string
	Predicted map[UpdateStrategy]time.Duration
}

// Incremental reports whether the choice takes the SMW path at all.
func (u UpdateChoice) Incremental() bool { return u.Strategy != UpdateFull }

// ChooseUpdate picks between the full pipeline and the SMW update for
// an order-n request whose delta against a cached base has rank k.
// queued is the serving layer's current admission-queue depth: the
// full pipeline queues behind it, while the update runs on the master
// immediately, so load shifts the crossover toward the update.
func ChooseUpdate(c Cluster, n, k, nb, queued int) UpdateChoice {
	load := 1 + float64(queued)/float64(max(1, c.Nodes))
	full := OursTime(c, n, nb, AllOpts)
	if c.JobLaunch <= 0 {
		// The simulated cluster still pays a per-job orchestration
		// overhead; OursTime's launch term is zero there, so charge it.
		full += time.Duration(core.PipelineJobs(n, nb)) * simJobLaunch
	}
	pred := map[UpdateStrategy]time.Duration{
		UpdateSequential: SequentialUpdateTime(c.Node, n, k),
		UpdateFull:       scale(full, load),
	}
	if k <= 0 || k*MaxUpdateFraction > n {
		return UpdateChoice{
			Strategy: UpdateFull,
			Reason: fmt.Sprintf("delta rank %d beyond n/%d of order %d: update flops approach the pipeline's",
				k, MaxUpdateFraction, n),
			Predicted: pred,
		}
	}
	best := UpdateSequential
	if pred[UpdateFull] < pred[best] {
		best = UpdateFull
	}
	reason := fmt.Sprintf("predicted %s (sequential %s, full %s) for n=%d k=%d on %d nodes, queue %d",
		FormatDuration(pred[best]), FormatDuration(pred[UpdateSequential]),
		FormatDuration(pred[UpdateFull]), n, k, c.Nodes, queued)
	return UpdateChoice{Strategy: best, Reason: reason, Predicted: pred}
}

func scale(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
