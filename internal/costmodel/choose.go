package costmodel

import (
	"fmt"
	"time"
)

// Engine selection and bound-value tuning — the paper's Section 8 second
// future-work item ("implement a system to adaptively choose the best
// matrix inversion technique for an input matrix") and the Section 5
// discussion of how to pick nb.

// Engine identifies one of the three inverters.
type Engine string

const (
	EngineLocal     Engine = "local"
	EngineMapReduce Engine = "mapreduce"
	EngineScaLAPACK Engine = "scalapack"
)

// Choice is the outcome of engine selection.
type Choice struct {
	Engine    Engine
	Reason    string
	Predicted map[Engine]time.Duration
}

// singleNodeTime estimates inverting an order-n matrix on one node with
// the optimized local kernel (no distribution overheads, bounded by RAM).
func singleNodeTime(node NodeSpec, n int) (time.Duration, bool) {
	mem := 3 * float64(n) * float64(n) * bytesPerElem // A, LU, inverse
	if mem > node.RAM {
		return 0, false
	}
	flops := 2 * float64(n) * float64(n) * float64(n) // n^3 mults + adds
	return secs(flops / node.MasterFlops), true
}

// ChooseEngine picks the fastest feasible inverter for an order-n matrix
// on the given cluster, using the calibrated models.
func ChooseEngine(c Cluster, n, nb int) Choice {
	pred := map[Engine]time.Duration{}

	if t, ok := singleNodeTime(c.Node, n); ok {
		pred[EngineLocal] = t
	}
	pred[EngineMapReduce] = OursTime(c, n, nb, AllOpts)
	if scalapackFeasible(c, n) {
		pred[EngineScaLAPACK] = scalapackTime(c, n)
	}

	best := EngineMapReduce
	for e, t := range pred {
		if t < pred[best] {
			best = e
		}
	}
	reason := fmt.Sprintf("predicted %s for n=%d on %d %s nodes", FormatDuration(pred[best]), n, c.Nodes, c.Node.Name)
	switch {
	case best == EngineLocal:
		reason = "matrix fits one node and avoids all distribution overhead; " + reason
	case best == EngineScaLAPACK:
		reason = "in-memory MPI baseline is fastest at this scale; " + reason
	case !scalapackFeasible(c, n):
		reason = "ScaLAPACK working set exceeds node RAM; MapReduce pipeline streams through HDFS; " + reason
	default:
		reason = "MapReduce pipeline wins on aggregate I/O and scheduling at this scale; " + reason
	}
	return Choice{Engine: best, Reason: reason, Predicted: pred}
}

// OptimalNB sweeps the bound value and returns the nb minimizing the
// modeled pipeline time for an order-n matrix on cluster c. The paper's
// guidance (Section 5): nb should make a master-node leaf decomposition
// take about as long as a MapReduce job launch; their measured choice on
// EC2 was 3200.
func OptimalNB(c Cluster, n int) int {
	bestNB, bestT := 0, time.Duration(0)
	for nb := 200; nb <= 25600; nb *= 2 {
		t := OursTime(c, n, nb, AllOpts)
		if bestNB == 0 || t < bestT {
			bestNB, bestT = nb, t
		}
	}
	return bestNB
}

// LeafTime returns the modeled master-node decomposition time of one leaf
// of order nb — the quantity the paper balances against JobLaunch.
func LeafTime(node NodeSpec, nb int) time.Duration {
	flops := 2.0 / 3.0 * float64(nb) * float64(nb) * float64(nb) * 2
	return secs(flops / node.MasterFlops)
}
