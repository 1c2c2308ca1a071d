package mrinverse

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/spark"
)

// The paper's Section 8 future-work features, implemented:
//
//   - InvertSpark: the block-LU algorithm on a Spark-style in-memory
//     engine with lineage-based fault tolerance (internal/spark), keeping
//     every intermediate in memory instead of HDFS;
//   - AutoInvert: adaptive selection of the best inversion technique for
//     an input matrix, driven by the calibrated cost model.

// InvertSpark computes A^-1 on the in-memory RDD engine: same recursion
// as Invert, intermediates held as cached RDD partitions, lost partitions
// recomputed from lineage.
func InvertSpark(a *Matrix, workers, nb int) (*Matrix, error) {
	if err := core.ValidateInput(a); err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = 1
	}
	if nb < 1 {
		nb = 64
	}
	iv := spark.NewInverter(spark.NewContext(workers), nb, workers)
	return iv.Invert(a)
}

// ClusterSpec describes the hypothetical deployment AutoInvert plans for:
// a homogeneous cluster of EC2-2013-style nodes.
type ClusterSpec struct {
	Nodes int
	// Large selects the paper's m1.large profile instead of m1.medium.
	Large bool
}

// EngineChoice reports which inverter AutoInvert selected and why.
type EngineChoice struct {
	Engine string
	Reason string
}

// PlanEngine models all three techniques for an order-n inversion on the
// given cluster and returns the choice without executing anything — the
// planning half of the Section 8 adaptive system.
func PlanEngine(n int, cluster ClusterSpec, nb int) EngineChoice {
	node := costmodel.Medium
	if cluster.Large {
		node = costmodel.Large
	}
	if cluster.Nodes < 1 {
		cluster.Nodes = 1
	}
	c := costmodel.NewCluster(node, cluster.Nodes)
	if nb <= 0 {
		nb = costmodel.OptimalNB(c, n)
	}
	choice := costmodel.ChooseEngine(c, n, nb)
	return EngineChoice{Engine: string(choice.Engine), Reason: choice.Reason}
}

// AutoInvert implements the paper's Section 8 adaptive system: it models
// all three techniques for the given cluster and matrix order, picks the
// fastest feasible one, and executes that technique on this machine's
// simulated substrate. nb <= 0 selects the model's optimal bound value.
func AutoInvert(a *Matrix, cluster ClusterSpec, nb int) (*Matrix, EngineChoice, error) {
	if err := core.ValidateInput(a); err != nil {
		return nil, EngineChoice{}, err
	}
	node := costmodel.Medium
	if cluster.Large {
		node = costmodel.Large
	}
	if cluster.Nodes < 1 {
		cluster.Nodes = 1
	}
	c := costmodel.NewCluster(node, cluster.Nodes)
	if nb <= 0 {
		nb = costmodel.OptimalNB(c, a.Rows)
	}
	choice := costmodel.ChooseEngine(c, a.Rows, nb)
	ec := EngineChoice{Engine: string(choice.Engine), Reason: choice.Reason}

	// Execute the chosen technique at this machine's scale. The simulated
	// node count is capped to keep task granularity sensible for small
	// inputs.
	nodes := cluster.Nodes
	if nodes > a.Rows {
		nodes = maxInt(2, a.Rows)
	}
	execNB := nb
	if execNB > a.Rows {
		execNB = maxInt(16, a.Rows/2)
	}
	switch choice.Engine {
	case costmodel.EngineLocal:
		inv, err := InvertLocal(a)
		return inv, ec, err
	case costmodel.EngineScaLAPACK:
		inv, _, err := InvertScaLAPACK(a, ScaLAPACKConfig{Procs: nodes, BlockSize: 128})
		return inv, ec, err
	case costmodel.EngineMapReduce:
		opts := DefaultOptions(nodes)
		opts.NB = execNB
		inv, fellBack, err := invertWithFallback(a, opts)
		if fellBack {
			ec.Engine = "local"
			ec.Reason += "; fell back to local after a singular diagonal block"
		}
		return inv, ec, err
	}
	return nil, ec, fmt.Errorf("mrinverse: unknown engine %q", choice.Engine)
}

// invertWithFallback runs the MapReduce pipeline and, if it fails on a
// singular diagonal block (an artifact of block-local pivoting, not
// necessarily a singular input), retries with the fully pivoted local
// inverter. The returned flag reports whether the fallback ran.
func invertWithFallback(a *Matrix, opts Options) (*Matrix, bool, error) {
	inv, _, err := Invert(a, opts)
	if errors.Is(err, core.ErrSingularBlock) {
		inv2, err2 := InvertLocal(a)
		return inv2, true, err2
	}
	return inv, false, err
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
