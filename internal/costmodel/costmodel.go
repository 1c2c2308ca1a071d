// Package costmodel estimates paper-scale running times for both systems —
// the MapReduce block-LU inverter and the ScaLAPACK-style MPI baseline —
// from the complexity formulas of the paper's Tables 1 and 2 plus a small
// set of calibrated hardware constants.
//
// The repository's real executions validate numerics and pipeline shape at
// laptop scale; this model extrapolates to the paper's matrix orders
// (20480..102400) and cluster sizes (1..128 EC2 instances) to regenerate
// the *shapes* of Figure 6 (strong scaling), Figure 7 (optimization
// ablations), Figure 8 (ScaLAPACK ratio), and the Section 7.4 runs. The
// calibration targets are the paper's own anchors: a bound-value (nb=3200)
// leaf decomposition takes on the order of a Hadoop job launch (~30 s,
// Section 5); inverting M4 takes ~5 h on 128 large instances and ~15 h on
// 64 medium instances (Section 7.4); ScaLAPACK takes ~8 h and >48 h on the
// same clusters (Section 7.5); EC2 medium instances copy files at
// ~60 MB/s (Section 7.4).
package costmodel

import (
	"math"
	"time"

	"repro/internal/core"
)

// NodeSpec models one EC2 instance type of the paper's 2013-era clusters.
type NodeSpec struct {
	Name string
	// Cores is the number of usable CPU cores.
	Cores int
	// Flops is the sustained double-precision rate of one core running
	// the paper's Java map/reduce code, in FLOP/s.
	Flops float64
	// MasterFlops is the rate of the optimized single-node LU kernel used
	// on the master (Section 5 sizes nb so a leaf takes about one job
	// launch).
	MasterFlops float64
	// DiskBW and NetBW are per-node sustained bandwidths in bytes/s.
	DiskBW, NetBW float64
	// RAM is per-node memory in bytes; exceeding it sends the ScaLAPACK
	// working set into swap (the Section 7.4 ">48 hours" run).
	RAM float64
}

// The two instance types of Section 7.1/7.4. An EC2 medium instance has
// one core ("1 virtual core with 2 EC2 compute units") and 3.7 GB; a large
// instance has two such cores and 7.5 GB.
var (
	Medium = NodeSpec{
		Name: "m1.medium", Cores: 1,
		Flops: 7e8, MasterFlops: 1.5e9,
		DiskBW: 60e6, NetBW: 60e6, RAM: 3.7e9,
	}
	Large = NodeSpec{
		Name: "m1.large", Cores: 2,
		Flops: 7e8, MasterFlops: 1.5e9,
		DiskBW: 55e6, NetBW: 50e6, RAM: 7.5e9,
	}
)

// Cluster is a homogeneous cluster of Nodes instances.
type Cluster struct {
	Node  NodeSpec
	Nodes int
	// JobLaunch is the constant MapReduce job-launch overhead.
	JobLaunch time.Duration
}

// DefaultJobLaunch is Hadoop 1.x's typical job start latency.
const DefaultJobLaunch = 30 * time.Second

// NewCluster builds a cluster with the default job-launch overhead.
func NewCluster(node NodeSpec, nodes int) Cluster {
	return Cluster{Node: node, Nodes: nodes, JobLaunch: DefaultJobLaunch}
}

// Complexity mirrors one row of the paper's Tables 1 and 2: element counts
// for HDFS writes/reads, network transfer, and floating-point operation
// counts, all as functions of n and m0.
type Complexity struct {
	Write, Read, Transfer float64 // matrix elements
	Mults, Adds           float64 // floating point operations
}

// OursLU returns Table 1's first row: the MapReduce LU decomposition.
// l = (m0 + 2 f1 + 2 f2)/4.
func OursLU(n, m0 int) Complexity {
	f1, f2 := core.FactorPair(m0)
	l := float64(m0+2*f1+2*f2) / 4
	n2 := float64(n) * float64(n)
	n3 := n2 * float64(n)
	return Complexity{
		Write:    1.5 * n2,
		Read:     (l + 3) * n2,
		Transfer: (l + 3) * n2,
		Mults:    n3 / 3,
		Adds:     n3 / 3,
	}
}

// scalapackLU returns Table 1's second row.
func scalapackLU(n, m0 int) Complexity {
	n2 := float64(n) * float64(n)
	n3 := n2 * float64(n)
	return Complexity{
		Write:    n2,
		Read:     n2,
		Transfer: 2.0 / 3.0 * float64(m0) * n2,
		Mults:    n3 / 3,
		Adds:     n3 / 3,
	}
}

// oursInversion returns Table 2's first row: triangular inversion plus the
// final multiplication. l = (m0 + f1 + f2)/2.
func oursInversion(n, m0 int) Complexity {
	f1, f2 := core.FactorPair(m0)
	l := float64(m0+f1+f2) / 2
	n2 := float64(n) * float64(n)
	n3 := n2 * float64(n)
	return Complexity{
		Write:    2 * n2,
		Read:     l * n2,
		Transfer: (l + 2) * n2,
		Mults:    2 * n3 / 3,
		Adds:     2 * n3 / 3,
	}
}

// scalapackInversion returns Table 2's second row.
func scalapackInversion(n, m0 int) Complexity {
	n2 := float64(n) * float64(n)
	n3 := n2 * float64(n)
	return Complexity{
		Write:    n2,
		Read:     float64(m0) * n2,
		Transfer: float64(m0) * n2,
		Mults:    2 * n3 / 3,
		Adds:     2 * n3 / 3,
	}
}

// add sums two complexity rows.
func (c Complexity) add(o Complexity) Complexity {
	return Complexity{
		Write:    c.Write + o.Write,
		Read:     c.Read + o.Read,
		Transfer: c.Transfer + o.Transfer,
		Mults:    c.Mults + o.Mults,
		Adds:     c.Adds + o.Adds,
	}
}

// OptFlags mirrors the Section 6 optimization toggles for ablations.
type OptFlags struct {
	SeparateFiles bool
	BlockWrap     bool
	TransposeU    bool
}

// AllOpts enables every optimization (the paper's configuration).
var AllOpts = OptFlags{SeparateFiles: true, BlockWrap: true, TransposeU: true}

const bytesPerElem = 8

// transposePenalty multiplies the multiplication work when U is stored in
// row-major orientation: every inner-loop element access misses the cache
// (Section 6.3 reports the optimization "improves the performance of our
// algorithm by a factor of 2-3").
const transposePenalty = 2.5

// OursTime estimates the wall-clock time of the full MapReduce inversion
// pipeline for an order-n matrix with bound nb on cluster c.
func OursTime(c Cluster, n, nb int, opts OptFlags) time.Duration {
	m0 := c.Nodes
	lu := OursLU(n, m0)
	inv := oursInversion(n, m0)
	if !opts.BlockWrap {
		// Naive layout: every multiplication reads (m0+1) n^2 elements
		// instead of (f1+f2) n^2 or 2(f1+f2)... — substitute the block
		// wrap terms in l with their naive counterparts (Section 6.2).
		f1, f2 := core.FactorPair(m0)
		n2 := float64(n) * float64(n)
		deltaLU := (2*float64(m0+1) - 2*float64(f1+f2)) / 4 * n2
		deltaInv := (float64(m0+1) - float64(f1+f2)) / 2 * n2
		lu.Read += deltaLU
		lu.Transfer += deltaLU
		inv.Read += deltaInv
		inv.Transfer += deltaInv
	}
	total := lu.add(inv)

	flops := total.Mults + total.Adds
	if !opts.TransposeU {
		flops *= transposePenalty
	}
	workers := float64(m0 * c.Node.Cores)
	computeS := flops / (workers * c.Node.Flops)

	ioS := (total.Write + total.Read) * bytesPerElem / (float64(m0) * c.Node.DiskBW)
	netS := total.Transfer * bytesPerElem / (float64(m0) * c.Node.NetBW)

	// Serial master work: one leaf decomposition per recursion leaf.
	d := core.Depth(n, nb)
	leafFlops := 2.0 / 3.0 * math.Pow(float64(min(n, nb)), 3) * 2
	masterS := float64(int(1)<<uint(d)) * leafFlops / c.Node.MasterFlops

	// Serial combine work when separate files are off: after each LU job
	// the master rewrites the level's factors (Section 6.1). Across the
	// recursion tree this reads+writes about 4 n^2 elements in total.
	combineS := 0.0
	if !opts.SeparateFiles {
		combineS = 4 * float64(n) * float64(n) * bytesPerElem * 2 / c.Node.DiskBW
	}

	launchS := float64(core.PipelineJobs(n, nb)) * c.JobLaunch.Seconds()

	return secs(computeS + ioS + netS + masterS + combineS + launchS)
}

// oursWorkerMemory returns the peak bytes a triangular-inversion worker
// holds for an order-n inversion on m0 nodes. Without streaming the
// worker assembles a full factor (n^2 elements); with streaming
// (core.Options.StreamingInversion) it holds one row band of height
// n/(2 m0) plus its n^2/(m0/2) output columns — how the paper's 42 GB
// factors pass through 3.7 GB workers.
func oursWorkerMemory(n, m0 int, streaming bool) float64 {
	n2 := float64(n) * float64(n)
	outputCols := n2 / float64(m0/2) * bytesPerElem
	if !streaming {
		return n2*bytesPerElem + outputCols
	}
	band := n2 / float64(2*m0) * bytesPerElem
	return band + outputCols
}

// sparkTime estimates the Section 8 port: the same pipeline with all
// intermediates held in memory, so the disk component shrinks to the
// one-time input read and final output write (n^2 each) and the network
// component to the shuffle-like band exchanges; job-launch overhead is
// also far smaller on a resident Spark context (no JVM spin-up per job).
func sparkTime(c Cluster, n, nb int) time.Duration {
	m0 := c.Nodes
	lu := OursLU(n, m0)
	inv := oursInversion(n, m0)
	total := lu.add(inv)

	workers := float64(m0 * c.Node.Cores)
	computeS := (total.Mults + total.Adds) / (workers * c.Node.Flops)

	n2 := float64(n) * float64(n)
	ioS := 2 * n2 * bytesPerElem / (float64(m0) * c.Node.DiskBW)
	// Band exchanges still cross the network once per stage.
	netS := total.Transfer * bytesPerElem / (float64(m0) * c.Node.NetBW) / 2

	d := core.Depth(n, nb)
	leafFlops := 2.0 / 3.0 * math.Pow(float64(min(n, nb)), 3) * 2
	masterS := float64(int(1)<<uint(d)) * leafFlops / c.Node.MasterFlops

	const sparkStageLaunch = 1.0 // seconds; resident executors
	launchS := float64(core.PipelineJobs(n, nb)) * sparkStageLaunch

	return secs(computeS + ioS + netS + masterS + launchS)
}

// ScaLAPACK model parameters: a modest single-node advantage from the
// optimized Fortran kernels, a per-step broadcast latency, an aggregate-
// network saturation point, a parallel-efficiency decay (the paper:
// "MapReduce scheduling is more effective than ScaLAPACK at keeping the
// workers busy ... a limitation at high scale"), and a swap factor when
// the per-node working set exceeds RAM.
const (
	scalKernelSpeedup  = 1.3
	scalStepLatencyS   = 5e-4
	scalNetSaturation  = 32.0 // aggregate bandwidth ~ m0/(1+m0/sat) nodes
	scalEffDecay       = 0.006
	scalWorkingSetCopy = 3.0 // A + factors + workspace per node
	scalSwapPenalty    = 4.0
)

// scalapackWorkingSet returns the per-node bytes the in-memory baseline
// needs for an order-n inversion on m0 nodes: roughly three n^2/m0 panels
// (input, factors, result/workspace). The paper keeps "all intermediate
// data ... in memory".
func scalapackWorkingSet(n, m0 int) float64 {
	return scalWorkingSetCopy * float64(n) * float64(n) * bytesPerElem / float64(m0)
}

// scalapackFeasible reports whether the working set fits in node RAM. The
// Figure 8 curves only exist where this holds; the Section 7.4 64-medium
// run of M4 is just past the boundary, which is the ">48 hours" result.
func scalapackFeasible(c Cluster, n int) bool {
	return scalapackWorkingSet(n, c.Nodes) <= c.Node.RAM
}

// scalapackTime estimates inversion time for the MPI baseline.
func scalapackTime(c Cluster, n int) time.Duration {
	m0 := c.Nodes
	total := scalapackLU(n, m0).add(scalapackInversion(n, m0))

	workers := float64(m0 * c.Node.Cores)
	eff := 1 + scalEffDecay*float64(m0)
	computeS := (total.Mults + total.Adds) / (workers * c.Node.Flops * scalKernelSpeedup) * eff

	aggNet := c.Node.NetBW * float64(m0) / (1 + float64(m0)/scalNetSaturation)
	netS := total.Transfer * bytesPerElem / aggNet

	// n pivot/panel broadcast rounds, each a log2(m0)-depth tree.
	syncS := float64(n) * math.Log2(math.Max(2, float64(m0))) * scalStepLatencyS

	ioS := (total.Write + total.Read) * bytesPerElem / (float64(m0) * c.Node.DiskBW)

	s := computeS + netS + syncS + ioS

	// Swap penalty when the distributed working set does not fit in RAM.
	if ws := scalapackWorkingSet(n, m0); ws > c.Node.RAM {
		s *= scalSwapPenalty * (ws / c.Node.RAM)
	}
	return secs(s)
}

func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
