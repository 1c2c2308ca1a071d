package core

import (
	"fmt"
	"slices"

	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
)

// Multi-round multiplication strategies.
//
// The Section 6.2 block wrap computes C = A B in one round: reducer (i, j)
// of an f1 x f2 grid reads the whole row band A_i and column band B_j.
// Every band therefore fans out to f2 (resp. f1) reader nodes, and with
// the output's replication that costs (f1 + f2) n^2 transferred elements.
//
// The replicated strategy (Ceccarello & Silvestri) arranges the same m0
// reducers as a g1 x g2 x rho grid over rho inner-dimension segments:
// reducer (i, j, s) forms the partial product A_{i,s} B_{s,j}, and a
// deterministic sum round folds the rho partials of block (i, j) in
// ascending segment order. Each input piece now fans out to only g2
// (resp. g1) nodes, and with favored-placement writes (dfs.WriteFrom) the
// partials land directly on their sum node, so total transfer drops to
// (g1 + g2 + rho - 1) n^2 elements — the 3D/communication-optimal
// schedule, minimized near g1 = g2 = rho = m0^(1/3).
//
// The space-round strategy (Pietracaprina et al.) keeps the f1 x f2 grid
// but streams the inner dimension in rho rounds, accumulating
// C += A_s B_s into a state block persisted on the reducer's own node
// between rounds. Transfer matches single-round while the per-reducer
// working set shrinks by a factor of rho — rounds traded for space.
//
// All three strategies produce bit-identical results to the sequential
// segmented reference matrix.MulSegTransB over the same segment bounds:
// every partial is formed by matrix.MulAddTransB (the MulTransB row-dot
// kernel) and folded in ascending segment order, so the floating-point
// operations and their order match the reference exactly.

// mulPlan is the resolved execution shape of one distributed product.
type mulPlan struct {
	strategy MultiplyStrategy
	g1, g2   int // output block grid; block (i, j) is owned by node i*g2+j
	rho      int // inner-dimension segments; 1 collapses to single-round
}

// jobs returns how many MapReduce jobs the plan launches.
func (pl mulPlan) jobs() int {
	switch {
	case pl.rho <= 1:
		return 1
	case pl.strategy == MultiplyReplicated:
		return 2
	default:
		return pl.rho
	}
}

// planMultiply resolves the options into a concrete plan for a
// rows x inner by inner x cols product on opts.Nodes nodes.
func planMultiply(opts Options, rows, inner, cols int) mulPlan {
	m0 := opts.Nodes
	f1, f2 := blockWrapGrid(opts)
	single := mulPlan{strategy: MultiplySingleRound, g1: f1, g2: f2, rho: 1}
	switch opts.Multiply {
	case MultiplyReplicated:
		rho := opts.MultiplyRho
		if rho < 2 {
			rho = bestReplicatedRho(m0)
		}
		// The reducer grid is g1 x g2 x rho with g1*g2*rho = m0, so rho
		// must divide m0; it also cannot exceed the inner dimension.
		for rho > 1 && (m0%rho != 0 || rho > inner) {
			rho--
		}
		if rho < 2 {
			return single
		}
		g1, g2 := FactorPair(m0 / rho)
		return mulPlan{strategy: MultiplyReplicated, g1: g1, g2: g2, rho: rho}
	case MultiplySpaceRound:
		rho := opts.MultiplyRho
		if rho < 1 && opts.MultiplyMemory > 0 {
			rho = roundsForMemory(opts.MultiplyMemory, f1, f2, rows, inner, cols)
		}
		if rho < 1 {
			rho = 2
		}
		if rho > inner {
			rho = inner
		}
		if rho < 2 {
			return single
		}
		return mulPlan{strategy: MultiplySpaceRound, g1: f1, g2: f2, rho: rho}
	default:
		return single
	}
}

// bestReplicatedRho picks the divisor rho of m0 minimizing the replicated
// strategy's transfer coefficient g1 + g2 + rho (the 3D grid optimum sits
// near m0^(1/3)). Returns 1 when no divisor >= 2 helps.
func bestReplicatedRho(m0 int) int {
	best, bestCost := 1, m0*3+1
	for rho := 2; rho <= m0; rho++ {
		if m0%rho != 0 {
			continue
		}
		g1, g2 := FactorPair(m0 / rho)
		if cost := g1 + g2 + rho; cost < bestCost {
			best, bestCost = rho, cost
		}
	}
	return best
}

// roundsForMemory returns the smallest round count whose per-round
// reducer working set (A segment + B segment + output block) fits the
// byte budget. When even one inner column per round does not fit, the
// round count is capped at the inner dimension.
func roundsForMemory(budget int64, g1, g2, rows, inner, cols int) int {
	const elem = 8
	out := int64(rows) * int64(cols) / int64(g1*g2) * elem
	per := (int64(rows)*int64(inner)/int64(g1) + int64(inner)*int64(cols)/int64(g2)) * elem
	if budget <= out || per <= 0 {
		return inner
	}
	rho := int((per + budget - out - 1) / (budget - out))
	if rho < 1 {
		rho = 1
	}
	if rho > inner {
		rho = inner
	}
	return rho
}

// mulGeom fixes one product's geometry: plan, dimensions, piece paths and
// the deterministic node layout the favored-placement writes target.
type mulGeom struct {
	plan              mulPlan
	m0                int
	rows, inner, cols int
	root              string
	// durable pads the favored placement of every intermediate (pieces,
	// partials, round state) to dfs.DefaultReplication nodes, so the
	// node kills of fault injection cannot strand every copy. Off in clean
	// runs, where it would distort the transfer accounting the CI gate
	// pins.
	durable bool
	// pin runs every task on its deterministic node under
	// StrictLocality: map task and reducer t on node t, sum task (i, j) on
	// sumNode(i, j). Favored-placement reads and writes then stay local
	// and JobResult.TransferredBytes is exactly reproducible, which the
	// standalone product's CI transfer gate needs. Unpinned (the block-LU
	// levels), tasks run on whichever worker is free: the pieces still
	// land on their readers, but no phase waits for particular workers.
	pin bool
}

// split decomposes reduce task t of the first job into (segment, i, j).
func (g mulGeom) split(t int) (s, i, j int) {
	grid := g.plan.g1 * g.plan.g2
	return t / grid, (t % grid) / g.plan.g2, t % g.plan.g2
}

// sumNode is the node owning output block (i, j) in every round.
func (g mulGeom) sumNode(i, j int) int { return i*g.plan.g2 + j }

func (g mulGeom) rowBand(i int) (int, int) { return bandBounds(g.rows, g.plan.g1, i) }
func (g mulGeom) colBand(j int) (int, int) { return bandBounds(g.cols, g.plan.g2, j) }
func (g mulGeom) seg(s int) (int, int)     { return bandBounds(g.inner, g.plan.rho, s) }

func (g mulGeom) aPiecePath(i, s int) string  { return fmt.Sprintf("%s/A.%d.%d", g.root, i, s) }
func (g mulGeom) btPiecePath(j, s int) string { return fmt.Sprintf("%s/BT.%d.%d", g.root, j, s) }
func (g mulGeom) partialPath(i, j, s int) string {
	return fmt.Sprintf("%s/P.%d.%d.%d", g.root, i, j, s)
}
func (g mulGeom) statePath(i, j, t int) string { return fmt.Sprintf("%s/S.%d.%d.%d", g.root, i, j, t) }
func (g mulGeom) outPath(i, j int) string {
	return fmt.Sprintf("%s/C.%d", g.root, i*g.plan.g2+j)
}

// aPieceReaders lists the nodes reading A piece (i, s): the owners of
// output row band i — within segment layer s on the replicated grid,
// across all layers otherwise.
func (g mulGeom) aPieceReaders(i, s int) []int {
	base := 0
	if g.plan.strategy == MultiplyReplicated {
		base = s * g.plan.g1 * g.plan.g2
	}
	nodes := make([]int, 0, g.plan.g2)
	for j := 0; j < g.plan.g2; j++ {
		nodes = append(nodes, base+i*g.plan.g2+j)
	}
	return nodes
}

// btPieceReaders lists the nodes reading B^T piece (j, s): the owners of
// output column band j.
func (g mulGeom) btPieceReaders(j, s int) []int {
	base := 0
	if g.plan.strategy == MultiplyReplicated {
		base = s * g.plan.g1 * g.plan.g2
	}
	nodes := make([]int, 0, g.plan.g1)
	for i := 0; i < g.plan.g1; i++ {
		nodes = append(nodes, base+i*g.plan.g2+j)
	}
	return nodes
}

// withBackup pads a placement under fault injection to
// dfs.DefaultReplication distinct nodes (at most m0), taking the nodes
// after nodes[0] in ring order — the copies a plain dfs Write keeps.
func (g mulGeom) withBackup(nodes []int) []int {
	want := min(dfs.DefaultReplication, g.m0)
	if !g.durable || len(nodes) == 0 || len(nodes) >= want {
		return nodes
	}
	out := append(make([]int, 0, want), nodes...)
	for k := nodes[0] + 1; len(out) < want; k++ {
		if nd := k % g.m0; !slices.Contains(out, nd) {
			out = append(out, nd)
		}
	}
	return out
}

// pieceWriter materializes the operand pieces owned by map task t,
// writing them with favored placement on their reader nodes.
type pieceWriter func(ctx *mapreduce.TaskContext, t int) error

// segReader loads one operand segment: A's row band i (resp. B^T's
// column band j) restricted to inner segment s.
type segReader func(rd nodeReader, band, s int) (*matrix.Dense, error)

// finishFunc consumes the finished product block (i, j) inside the task
// that owns it (writing C, or folding it into B = A4 - L2'U2).
type finishFunc func(ctx *mapreduce.TaskContext, i, j int, blk *matrix.Dense) error

// mulNames carries the job names of one product's rounds.
type mulNames struct {
	first string // piece-writing job (also the only job at rho = 1)
	sum   string // replicated sum round
	round string // space-round accumulation rounds
}

// numericPartition routes key "t" to reduce task t.
func numericPartition(key string, n int) int {
	var v int
	fmt.Sscanf(key, "%d", &v)
	return v % n
}

// runMulRounds executes one planned product: a piece-writing job whose
// reducers form (partial) products, then the plan's extra rounds. run
// executes a job through the caller (attaching spans, recording results);
// writePieces, readA, readBT and finish bind the product's operands and
// output. With geom.pin every job's Prefer / PreferReduce table pins
// task t to node t (t < m0 indexes both the task grid and the sum grid).
func runMulRounds(geom mulGeom, names mulNames, run func(*mapreduce.Job) error,
	writePieces pieceWriter, readA, readBT segReader, finish finishFunc) error {
	pl := geom.plan
	var prefer [][]int
	if geom.pin {
		prefer = make([][]int, geom.m0)
		for t := range prefer {
			prefer[t] = []int{t}
		}
	}
	grid := pl.g1 * pl.g2

	// accumulate folds segment s of block (i, j) into state with the
	// reference kernel; a nil state starts a fresh block.
	accumulate := func(rd nodeReader, state *matrix.Dense, i, j, s int) (*matrix.Dense, error) {
		rlo, rhi := geom.rowBand(i)
		clo, chi := geom.colBand(j)
		if state == nil {
			state = matrix.New(rhi-rlo, chi-clo)
		}
		klo, khi := geom.seg(s)
		if khi == klo {
			return state, nil
		}
		am, err := readA(rd, i, s)
		if err != nil {
			return nil, fmt.Errorf("core: multiply block (%d,%d) seg %d A: %w", i, j, s, err)
		}
		btm, err := readBT(rd, j, s)
		if err != nil {
			return nil, fmt.Errorf("core: multiply block (%d,%d) seg %d B^T: %w", i, j, s, err)
		}
		if err := matrix.MulAddTransB(state, am, btm); err != nil {
			return nil, err
		}
		return state, nil
	}

	if pl.rho == 1 || pl.strategy == MultiplyReplicated {
		job := &mapreduce.Job{
			Name:           names.first,
			Splits:         mapreduce.ControlSplits(geom.m0),
			NumReduce:      geom.m0,
			Partition:      numericPartition,
			Prefer:         prefer,
			PreferReduce:   prefer,
			StrictLocality: geom.pin,
			Map: func(ctx *mapreduce.TaskContext, split mapreduce.InputSplit, emit mapreduce.Emitter) error {
				if err := writePieces(ctx, split.ID); err != nil {
					return err
				}
				emit.Emit(fmt.Sprintf("%d", split.ID), nil)
				return nil
			},
			Reduce: func(ctx *mapreduce.TaskContext, key string, values [][]byte, emit mapreduce.Emitter) error {
				var t int
				if _, err := fmt.Sscanf(key, "%d", &t); err != nil {
					return err
				}
				s, i, j := geom.split(t)
				rlo, rhi := geom.rowBand(i)
				clo, chi := geom.colBand(j)
				if rlo == rhi || clo == chi {
					return nil
				}
				rd := nodeReader{fs: ctx.FS, node: ctx.Node}
				blk, err := accumulate(rd, nil, i, j, s)
				if err != nil {
					return err
				}
				if pl.rho == 1 {
					return finish(ctx, i, j, blk)
				}
				ctx.IncrCounter("mul.partial.elements", int64(blk.Rows)*int64(blk.Cols))
				return ctx.FS.WriteMatrixFrom(geom.partialPath(i, j, s), blk, ctx.Node,
					geom.withBackup([]int{geom.sumNode(i, j)}))
			},
		}
		if err := run(job); err != nil {
			return err
		}
		if pl.rho == 1 {
			return nil
		}
		// Deterministic sum round: map-only, block (i, j) pinned to its
		// sum node where every partial already resides, folding them in
		// ascending segment order — the same left fold as MulSegTransB.
		sum := &mapreduce.Job{
			Name:           names.sum,
			Splits:         mapreduce.ControlSplits(grid),
			Prefer:         prefer,
			StrictLocality: geom.pin,
			Map: func(ctx *mapreduce.TaskContext, split mapreduce.InputSplit, emit mapreduce.Emitter) error {
				r := split.ID
				i, j := r/pl.g2, r%pl.g2
				rlo, rhi := geom.rowBand(i)
				clo, chi := geom.colBand(j)
				if rlo == rhi || clo == chi {
					return nil
				}
				rd := nodeReader{fs: ctx.FS, node: ctx.Node}
				var acc *matrix.Dense
				for s := 0; s < pl.rho; s++ {
					p, err := rd.readMatrix(geom.partialPath(i, j, s))
					if err != nil {
						return fmt.Errorf("core: multiply sum (%d,%d) seg %d: %w", i, j, s, err)
					}
					if acc == nil {
						acc = p
					} else if err := matrix.AddInPlace(acc, p); err != nil {
						return err
					}
				}
				ctx.IncrCounter("mul.sum.elements", int64(acc.Rows)*int64(acc.Cols))
				return finish(ctx, i, j, acc)
			},
		}
		return run(sum)
	}

	// Space-round: rho chained jobs; block (i, j) stays pinned to one
	// node, streaming the inner dimension and persisting the running
	// state locally between rounds.
	for t := 0; t < pl.rho; t++ {
		t := t
		job := &mapreduce.Job{
			Name:           names.round,
			Splits:         mapreduce.ControlSplits(geom.m0),
			NumReduce:      grid,
			Partition:      numericPartition,
			Prefer:         prefer,
			PreferReduce:   prefer,
			StrictLocality: geom.pin,
			Config:         map[string]string{"round": fmt.Sprintf("%d", t)},
			Map: func(ctx *mapreduce.TaskContext, split mapreduce.InputSplit, emit mapreduce.Emitter) error {
				if t == 0 {
					if err := writePieces(ctx, split.ID); err != nil {
						return err
					}
				}
				if split.ID < grid {
					emit.Emit(fmt.Sprintf("%d", split.ID), nil)
				}
				return nil
			},
			Reduce: func(ctx *mapreduce.TaskContext, key string, values [][]byte, emit mapreduce.Emitter) error {
				var r int
				if _, err := fmt.Sscanf(key, "%d", &r); err != nil {
					return err
				}
				i, j := r/pl.g2, r%pl.g2
				rlo, rhi := geom.rowBand(i)
				clo, chi := geom.colBand(j)
				if rlo == rhi || clo == chi {
					return nil
				}
				rd := nodeReader{fs: ctx.FS, node: ctx.Node}
				var state *matrix.Dense
				if t > 0 {
					prev, err := rd.readMatrix(geom.statePath(i, j, t-1))
					if err != nil {
						return fmt.Errorf("core: multiply round %d state (%d,%d): %w", t, i, j, err)
					}
					state = prev
				}
				state, err := accumulate(rd, state, i, j, t)
				if err != nil {
					return err
				}
				if t == pl.rho-1 {
					return finish(ctx, i, j, state)
				}
				ctx.IncrCounter("mul.round.elements", int64(state.Rows)*int64(state.Cols))
				return ctx.FS.WriteMatrixFrom(geom.statePath(i, j, t), state, ctx.Node,
					geom.withBackup([]int{geom.sumNode(i, j)}))
			},
		}
		if err := run(job); err != nil {
			return err
		}
	}
	return nil
}

// inMemoryPieces writes the pieces of in-memory operands a, b (the
// standalone Multiply). Map task (s, i, 0) owns A piece (i, s) and task
// (s, 0, j) owns B^T piece (j, s); on the non-replicated grids (where
// map tasks have s = 0) the owner writes its band's pieces for every
// segment. Each piece is placed on exactly its reader nodes, with the
// pinned writer among them, so piece reads are local and each input byte
// crosses the network (fan-out - 1) times — the strategy's whole win.
func inMemoryPieces(a, b *matrix.Dense, geom mulGeom) pieceWriter {
	return func(ctx *mapreduce.TaskContext, t int) error {
		s, i, j := geom.split(t)
		segs := []int{s}
		if geom.plan.strategy != MultiplyReplicated {
			segs = segs[:0]
			for s := 0; s < geom.plan.rho; s++ {
				segs = append(segs, s)
			}
		}
		if j == 0 {
			rlo, rhi := geom.rowBand(i)
			if rlo != rhi {
				for _, s := range segs {
					klo, khi := geom.seg(s)
					if klo == khi {
						continue
					}
					if err := ctx.FS.WriteMatrixFrom(geom.aPiecePath(i, s),
						a.Block(rlo, rhi, klo, khi), ctx.Node,
						geom.withBackup(geom.aPieceReaders(i, s))); err != nil {
						return err
					}
				}
			}
		}
		if i == 0 {
			clo, chi := geom.colBand(j)
			if clo != chi {
				for _, s := range segs {
					klo, khi := geom.seg(s)
					if klo == khi {
						continue
					}
					if err := ctx.FS.WriteMatrixFrom(geom.btPiecePath(j, s),
						b.Block(klo, khi, clo, chi).Transpose(), ctx.Node,
						geom.withBackup(geom.btPieceReaders(j, s))); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
}

// filePieceReaders reads the whole-piece files inMemoryPieces writes.
func filePieceReaders(geom mulGeom) (readA, readBT segReader) {
	readA = func(rd nodeReader, i, s int) (*matrix.Dense, error) {
		return rd.readMatrix(geom.aPiecePath(i, s))
	}
	readBT = func(rd nodeReader, j, s int) (*matrix.Dense, error) {
		return rd.readMatrix(geom.btPiecePath(j, s))
	}
	return readA, readBT
}

// MultiplyReport summarizes one strategy-routed distributed product,
// aggregated from the per-job DFS byte accounting.
type MultiplyReport struct {
	Strategy MultiplyStrategy
	Rho      int
	Grid     [2]int // g1 x g2 output block grid
	Jobs     int
	// ShuffledKVs and the byte counters sum the per-job accounting of
	// every round.
	ShuffledKVs      int
	BytesRead        int64
	BytesWritten     int64
	TransferredBytes int64
	// Elements counts the output elements produced by the final round.
	Elements int64
}

func (r *MultiplyReport) absorb(jr *mapreduce.JobResult) {
	r.Jobs++
	r.ShuffledKVs += jr.ShuffledKVs
	r.BytesRead += jr.BytesRead
	r.BytesWritten += jr.BytesWritten
	r.TransferredBytes += jr.TransferredBytes
	r.Elements += jr.Counters["mul.elements"]
}
