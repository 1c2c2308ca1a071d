// Package core implements the HPDC 2014 paper's contribution: scalable
// matrix inversion as a pipeline of MapReduce jobs built on recursive block
// LU decomposition.
//
// The pipeline (Figure 2 of the paper) is:
//
//	partition job -> 2^d - 1 block-LU jobs -> triangular-inversion job
//
// where d = ceil(log2(n/nb)) is the recursion depth and nb is the "bound
// value": the order of the largest submatrix the MapReduce master
// decomposes locally with Algorithm 1. Each block-LU job computes L2' and
// U2 in its mappers (Equation 6) and B = A4 - L2'U2 in its reducers
// (Figure 5); the final job inverts L and U column-independently in its
// mappers (Equation 4) and multiplies U^-1 L^-1 with the block-wrap layout
// in its reducers, undoing pivoting by a column permutation (Section 5.4).
//
// The three Section 6 optimizations — separate intermediate files, block
// wrap, transposed U storage — are implemented and individually togglable
// so the Figure 7 ablation can be reproduced.
package core

import (
	"errors"
	"fmt"
)

// DefaultNB is the default bound value for laptop-scale runs. The paper
// uses 3200 on EC2; tests use much smaller values to force deep pipelines
// at small orders.
const DefaultNB = 512

// MultiplyStrategy selects how the pipeline's distributed matrix
// products are executed.
type MultiplyStrategy string

const (
	// MultiplySingleRound is the paper's Section 6.2 single-round
	// block-wrap product: one job, each reducer reads a full row band of
	// A and column band of B. The zero value of the option.
	MultiplySingleRound MultiplyStrategy = "single-round"
	// MultiplyReplicated is the replication-parameter multi-round product
	// of Ceccarello & Silvestri: the m0 reducers form a g1 x g2 x rho
	// grid over rho inner-dimension segments, compute partial products in
	// one round, and a deterministic sum round folds the rho partials of
	// each output block in ascending segment order. Cutting the reader
	// fan-out of every input piece from f2 (resp. f1) nodes to g2 (resp.
	// g1) is what makes the strategy communication-optimal: transfer
	// drops from (f1+f2-2) n^2 elements to (g1+g2+rho-3) n^2.
	MultiplyReplicated MultiplyStrategy = "replicated"
	// MultiplySpaceRound is the space-round tradeoff of Pietracaprina et
	// al.: the f1 x f2 reducer grid is kept, but each reducer streams the
	// inner dimension in rho rounds, accumulating C += A_s B_s into a
	// locally persisted state block. Transfer matches single-round while
	// per-reducer memory drops by a factor of rho; MultiplyMemory derives
	// rho from a byte budget.
	MultiplySpaceRound MultiplyStrategy = "space-round"
)

// Options configures the inversion pipeline.
type Options struct {
	// NB is the bound value n_b: submatrices of order <= NB are
	// LU-decomposed on the master node (Section 5).
	NB int
	// Nodes is m0, the number of compute nodes. It must be even and >= 2
	// so the per-job mapper population can split half L2' / half U2
	// (Figure 5); Validate rounds odd values up.
	Nodes int
	// SeparateFiles keeps every intermediate factor in its own file
	// (Section 6.1). When false the master serially combines L and U
	// files after every job — the unoptimized comparator of Figure 7.
	SeparateFiles bool
	// BlockWrap uses the f1 x f2 block-wrap layout for the two matrix
	// multiplications (Section 6.2). When false each reducer reads one
	// full operand — the naive layout of Figure 7.
	BlockWrap bool
	// TransposeU stores upper triangular factors transposed so inner
	// products walk rows (Section 6.3).
	TransposeU bool
	// Root is the HDFS work directory ("Root" in Figure 4).
	Root string
	// StreamingInversion makes the triangular-inversion mappers read the
	// factors in row bands instead of assembling them whole, bounding
	// per-task memory to one band plus the output columns — how the
	// paper's 42 GB factors fit 3.7 GB workers.
	StreamingInversion bool
	// TextInput stores and reads the input matrix in the paper's text
	// format ("a.txt") instead of binary — roughly 2.5x the bytes
	// (Table 3's Text vs Binary columns), visible in the partition job's
	// read accounting.
	TextInput bool
	// Priority is the fair-share scheduling priority carried by every
	// MapReduce job of this pipeline: when the cluster's slots are
	// contended by concurrent pipelines, higher-priority jobs are
	// granted slots first; equal priorities share round-robin. Zero is
	// the default class.
	Priority int
	// Multiply selects the strategy for the pipeline's distributed
	// products: Pipeline.Multiply and the B = A4 - L2'U2 step of every
	// block-LU level. The empty value means MultiplySingleRound.
	// costmodel.ChooseMultiply picks a strategy and rho from matrix size,
	// node count and per-node memory, the way ChooseEngine picks engines.
	Multiply MultiplyStrategy
	// MultiplyRho is the replication / round parameter rho of the
	// multi-round strategies. Zero derives it: for MultiplyReplicated the
	// divisor of Nodes minimizing modeled transfer, for MultiplySpaceRound
	// the round count implied by MultiplyMemory (or 2 when unset). The
	// effective rho is clamped to the product's inner dimension; rho = 1
	// degenerates to the single-round shape.
	MultiplyRho int
	// MultiplyMemory caps the per-reducer operand bytes of the
	// space-round strategy; the round count becomes the smallest rho that
	// fits the per-round working set (segment of A + segment of B +
	// output block) under the cap. Zero means uncapped.
	MultiplyMemory int64
}

// DefaultOptions returns the paper's optimized configuration on m0 nodes.
func DefaultOptions(nodes int) Options {
	return Options{
		NB:            DefaultNB,
		Nodes:         nodes,
		SeparateFiles: true,
		BlockWrap:     true,
		TransposeU:    true,
		Root:          "Root",
	}
}

// ErrBadOptions reports an invalid configuration.
var ErrBadOptions = errors.New("core: invalid options")

// ErrSingularBlock reports that a diagonal block of the recursion was
// singular. Because the block method pivots only within blocks, this can
// happen for invertible inputs; callers should fall back to a fully
// pivoted inverter (e.g. lu.Invert or the ScaLAPACK baseline).
var ErrSingularBlock = errors.New("core: singular diagonal block (block-local pivoting)")

// Validate normalizes o and reports configuration errors.
func (o *Options) Validate() error {
	if o.NB < 1 {
		return fmt.Errorf("core: NB = %d: %w", o.NB, ErrBadOptions)
	}
	if o.Nodes < 2 {
		o.Nodes = 2
	}
	if o.Nodes%2 == 1 {
		o.Nodes++
	}
	if o.Root == "" {
		o.Root = "Root"
	}
	switch o.Multiply {
	case "", MultiplySingleRound, MultiplyReplicated, MultiplySpaceRound:
	default:
		return fmt.Errorf("core: multiply strategy %q: %w", o.Multiply, ErrBadOptions)
	}
	if o.MultiplyRho < 0 || o.MultiplyMemory < 0 {
		return fmt.Errorf("core: multiply rho %d / memory %d: %w", o.MultiplyRho, o.MultiplyMemory, ErrBadOptions)
	}
	return nil
}

// Depth returns the recursion depth d = ceil(log2(n/nb)) of the block LU
// decomposition: the number of times the matrix halves before submatrices
// fit on the master node. Depth is 0 when n <= nb.
func Depth(n, nb int) int {
	if nb < 1 {
		nb = 1
	}
	d := 0
	for n > nb {
		// ceil(n/2): rounding up keeps every leaf at or below nb.
		n = (n + 1) / 2
		d++
	}
	return d
}

// luJobs returns the number of MapReduce jobs in the LU phase for a
// *uniform* recursion of depth d: each internal node contributes one job
// (computing L2', U2, and B), giving 2^d - 1. This is the paper's
// "2^ceil(log2 n/nb)" estimate; luJobCount gives the exact value when
// rounding makes the tree asymmetric.
func luJobs(d int) int {
	return (1 << uint(d)) - 1
}

// luJobCount returns the exact number of LU-phase jobs for an order-n
// matrix: the recursion splits into A1 of order ceil(n/2) and B of order
// floor(n/2), whose depths can differ by one when n is not a power of two
// times nb (the paper's "modulo rounding" caveat, Section 4.2).
func luJobCount(n, nb int) int {
	if nb < 1 {
		nb = 1
	}
	if n <= nb {
		return 0
	}
	h := splitPoint(n)
	return 1 + luJobCount(h, nb) + luJobCount(n-h, nb)
}

// PipelineJobs returns the total number of MapReduce jobs to invert an
// order-n matrix with bound nb: one partition job, the LU-phase jobs, and
// one triangular-inversion/final-output job. For the paper's nb = 3200
// this reproduces the "Number of Jobs" column of Table 3
// (M1: 9, M2: 17, M3: 17, M4: 33, M5: 9).
func PipelineJobs(n, nb int) int {
	return 1 + luJobCount(n, nb) + 1
}

// separateFileCount returns N(d), the number of files storing one
// triangular factor under the Section 6.1 optimization:
// N(d) = 2^d + (m0/2)(2^d - 1). Leaves contribute one file each (2^d of
// them); every internal node contributes m0/2 band files for L2' (or U2).
func separateFileCount(d, m0 int) int {
	p := 1 << uint(d)
	return p + m0/2*(p-1)
}

// FactorPair returns the block-wrap process grid (f1, f2) for m0 nodes:
// f2 <= f1, f1*f2 = m0, with no other factor of m0 between them
// (Section 6.2 chooses |f1 - f2| as small as possible).
func FactorPair(m0 int) (f1, f2 int) {
	if m0 < 1 {
		return 1, 1
	}
	for f := 1; f*f <= m0; f++ {
		if m0%f == 0 {
			f2 = f
		}
	}
	return m0 / f2, f2
}

// blockWrapGrid returns the reducer grid f1 x f2 of the pipeline's
// distributed products: the Section 6.2 block wrap FactorPair(Nodes), or
// with BlockWrap off the naive layout of Nodes full row bands.
func blockWrapGrid(opts Options) (f1, f2 int) {
	if !opts.BlockWrap {
		return opts.Nodes, 1
	}
	return FactorPair(opts.Nodes)
}

// naiveReadVolume returns the total bytes-equivalent element reads of the
// naive multiplication layout on m0 nodes for an n x n product:
// (m0 + 1) n^2 elements (Section 6.2).
func naiveReadVolume(n, m0 int) int64 {
	return int64(m0+1) * int64(n) * int64(n)
}

// blockWrapReadVolume returns the element reads of the block-wrap layout:
// (f1 + f2) n^2 (Section 6.2).
func blockWrapReadVolume(n, m0 int) int64 {
	f1, f2 := FactorPair(m0)
	return int64(f1+f2) * int64(n) * int64(n)
}
