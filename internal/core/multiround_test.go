package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dfs"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// segBoundsOf reconstructs the inner-dimension segment edges a plan uses,
// so tests can run the sequential reference over the same fold.
func segBoundsOf(pl mulPlan, inner int) []int {
	bounds := []int{0}
	for s := 0; s < pl.rho; s++ {
		_, hi := bandBounds(inner, pl.rho, s)
		bounds = append(bounds, hi)
	}
	return bounds
}

func bitIdentical(a, b *matrix.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

func TestPlanMultiplyResolution(t *testing.T) {
	base := DefaultOptions(16)
	if pl := planMultiply(base, 64, 64, 64); pl.strategy != MultiplySingleRound || pl.rho != 1 {
		t.Fatalf("default plan = %+v, want single-round rho 1", pl)
	}
	repl := base
	repl.Multiply = MultiplyReplicated
	pl := planMultiply(repl, 64, 64, 64)
	if pl.strategy != MultiplyReplicated || pl.rho < 2 || 16%pl.rho != 0 {
		t.Fatalf("replicated plan = %+v", pl)
	}
	// m0 = 16: rho = 2 gives grid (4,2) and cost 4+2+2 = 8, the minimum.
	if pl.rho != 2 || pl.g1 != 4 || pl.g2 != 2 {
		t.Fatalf("replicated plan = %+v, want rho 2 grid (4,2)", pl)
	}
	// rho is clamped to the inner dimension: inner = 1 degenerates.
	if pl := planMultiply(repl, 64, 1, 64); pl.strategy != MultiplySingleRound {
		t.Fatalf("inner=1 plan = %+v, want single-round", pl)
	}
	sr := base
	sr.Multiply = MultiplySpaceRound
	if pl := planMultiply(sr, 64, 64, 64); pl.strategy != MultiplySpaceRound || pl.rho != 2 {
		t.Fatalf("space-round default plan = %+v, want rho 2", pl)
	}
	sr.MultiplyRho = 4
	if pl := planMultiply(sr, 64, 64, 64); pl.rho != 4 {
		t.Fatalf("space-round rho=4 plan = %+v", pl)
	}
	// A memory budget derives the round count: on the (4,4) grid the
	// full-width operands are per = 8*(64*64/4 + 64*64/4) = 16 KiB and
	// the output block out = 2 KiB; a budget of out + per/3 forces three
	// rounds.
	out := int64(8 * 64 * 64 / 16)
	per := int64(8 * (64*64/4 + 64*64/4))
	sr.MultiplyRho = 0
	sr.MultiplyMemory = out + per/3
	pl = planMultiply(sr, 64, 64, 64)
	if pl.rho < 2 {
		t.Fatalf("space-round memory plan = %+v, want rho >= 2", pl)
	}
	if got := per / int64(pl.rho); got > sr.MultiplyMemory-out {
		t.Fatalf("rho %d leaves per-round bytes %d over budget %d", pl.rho, got, sr.MultiplyMemory-out)
	}
}

func TestBestReplicatedRho(t *testing.T) {
	// m0 = 64: the 3D optimum 4x4x4 has cost 12, beating every other
	// divisor split.
	if rho := bestReplicatedRho(64); rho != 4 {
		t.Fatalf("bestReplicatedRho(64) = %d, want 4", rho)
	}
	if rho := bestReplicatedRho(2); rho != 1 {
		// 2 = 1x1x2 costs 1+1+2 = 4 > FactorPair cost 2+1+1... the
		// degenerate grid never beats (2,1) single-round shape, but the
		// chosen rho must at least be a valid divisor.
		if 2%rho != 0 {
			t.Fatalf("bestReplicatedRho(2) = %d, not a divisor", rho)
		}
	}
}

// Every strategy and rho must reproduce the sequential segmented
// reference bit for bit, across rectangular shapes, node counts and
// segment counts — the acceptance criterion that makes the strategies
// interchangeable mid-pipeline.
func TestMultiplyStrategiesBitIdentical(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{37, 23, 41},
		{64, 64, 64},
		{16, 95, 31},
	}
	for _, nodes := range []int{4, 16} {
		for _, sh := range shapes {
			a := workload.RandomRect(sh.m, sh.k, int64(nodes))
			b := workload.RandomRect(sh.k, sh.n, int64(nodes+1))
			for _, cfg := range []struct {
				strategy MultiplyStrategy
				rho      int
			}{
				{MultiplySingleRound, 0},
				{MultiplyReplicated, 0},
				{MultiplyReplicated, 2},
				{MultiplyReplicated, 4},
				{MultiplySpaceRound, 2},
				{MultiplySpaceRound, 3},
			} {
				opts := DefaultOptions(nodes)
				opts.Multiply = cfg.strategy
				opts.MultiplyRho = cfg.rho
				p, err := NewPipeline(opts)
				if err != nil {
					t.Fatal(err)
				}
				got, rep, err := p.MultiplyWithReport(a, b)
				if err != nil {
					t.Fatalf("nodes=%d shape=%v %s/rho=%d: %v", nodes, sh, cfg.strategy, cfg.rho, err)
				}
				pl := planMultiply(opts, sh.m, sh.k, sh.n)
				want, err := matrix.MulSegTransB(a, b.Transpose(), segBoundsOf(pl, sh.k))
				if err != nil {
					t.Fatal(err)
				}
				if !bitIdentical(got, want) {
					t.Fatalf("nodes=%d shape=%v %s/rho=%d: differs from segmented reference by %g",
						nodes, sh, cfg.strategy, cfg.rho, matrix.MaxAbsDiff(got, want))
				}
				// And within rounding of the unsegmented product.
				exact, err := matrix.Mul(a, b)
				if err != nil {
					t.Fatal(err)
				}
				if d := matrix.MaxAbsDiff(got, exact); d > 1e-9 {
					t.Fatalf("nodes=%d shape=%v %s/rho=%d: differs from Mul by %g", nodes, sh, cfg.strategy, cfg.rho, d)
				}
				if rep.Strategy != pl.strategy || rep.Rho != pl.rho {
					t.Fatalf("report %+v does not match plan %+v", rep, pl)
				}
			}
		}
	}
}

// Jobs per strategy: single-round 1, replicated 2 (partials + sum),
// space-round rho chained rounds.
func TestMultiplyReportJobCounts(t *testing.T) {
	a := workload.RandomRect(48, 48, 7)
	b := workload.RandomRect(48, 48, 8)
	cases := []struct {
		strategy MultiplyStrategy
		rho      int
		jobs     int
	}{
		{MultiplySingleRound, 0, 1},
		{MultiplyReplicated, 2, 2},
		{MultiplySpaceRound, 3, 3},
	}
	for _, c := range cases {
		opts := DefaultOptions(16)
		opts.Multiply = c.strategy
		opts.MultiplyRho = c.rho
		p, err := NewPipeline(opts)
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := p.MultiplyWithReport(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Jobs != c.jobs {
			t.Errorf("%s/rho=%d: %d jobs, want %d", c.strategy, c.rho, rep.Jobs, c.jobs)
		}
	}
}

// The tentpole's measurable claim: on the gated shape the replicated
// strategy moves strictly fewer bytes than single-round. With explicit
// placement both byte counts are deterministic, so the comparison is
// exact, not statistical.
func TestMultiplyReplicatedTransfersLessThanSingleRound(t *testing.T) {
	const n, nodes = 128, 16
	a := workload.Random(n, 11)
	b := workload.Random(n, 12)
	measure := func(strategy MultiplyStrategy) int64 {
		opts := DefaultOptions(nodes)
		opts.Multiply = strategy
		p, err := NewPipeline(opts)
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := p.MultiplyWithReport(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if rep.TransferredBytes <= 0 {
			t.Fatalf("%s: no transfer accounted", strategy)
		}
		return rep.TransferredBytes
	}
	single := measure(MultiplySingleRound)
	repl := measure(MultiplyReplicated)
	if repl >= single {
		t.Fatalf("replicated moved %d bytes, single-round %d — no win", repl, single)
	}
	// The model predicts (g1+g2+rho-1)/(f1+f2) = 7/8 at m0 = 16; allow
	// headroom for job-control bytes but require a real gap.
	if float64(repl) > 0.95*float64(single) {
		t.Fatalf("replicated won only %d vs %d (<5%%)", repl, single)
	}
}

// Space-round matches single-round transfer asymptotically but must not
// blow it up: the state blocks it persists between rounds stay on their
// own node and cost nothing.
func TestMultiplySpaceRoundTransferNearSingleRound(t *testing.T) {
	const n, nodes = 128, 16
	a := workload.Random(n, 21)
	b := workload.Random(n, 22)
	measure := func(strategy MultiplyStrategy, rho int) int64 {
		opts := DefaultOptions(nodes)
		opts.Multiply = strategy
		opts.MultiplyRho = rho
		p, err := NewPipeline(opts)
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := p.MultiplyWithReport(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return rep.TransferredBytes
	}
	single := measure(MultiplySingleRound, 0)
	space := measure(MultiplySpaceRound, 4)
	if float64(space) > 1.10*float64(single) {
		t.Fatalf("space-round moved %d bytes vs single-round %d (>10%% over)", space, single)
	}
}

// The inversion pipeline accepts every strategy: the level jobs route
// B = A4 - L2'U2 through the multi-round runner and the result still
// inverts the input.
func TestInvertWithMultiRoundStrategies(t *testing.T) {
	const n = 64
	a := workload.DiagonallyDominant(n, 31)
	for _, strategy := range []MultiplyStrategy{MultiplyReplicated, MultiplySpaceRound} {
		for _, transposeU := range []bool{true, false} {
			opts := DefaultOptions(4)
			opts.NB = 16
			opts.Multiply = strategy
			opts.TransposeU = transposeU
			p, err := NewPipeline(opts)
			if err != nil {
				t.Fatal(err)
			}
			inv, rep, err := p.Invert(a)
			if err != nil {
				t.Fatalf("%s transposeU=%v: %v", strategy, transposeU, err)
			}
			resid, err := matrix.IdentityResidual(a, inv)
			if err != nil {
				t.Fatal(err)
			}
			if resid > 1e-8 {
				t.Fatalf("%s transposeU=%v: residual %g", strategy, transposeU, resid)
			}
			// Multi-round levels run more jobs than the single job per
			// internal node.
			if rep.JobsRun <= PipelineJobs(n, opts.NB) {
				t.Fatalf("%s: %d jobs, want more than the single-round %d",
					strategy, rep.JobsRun, PipelineJobs(n, opts.NB))
			}
		}
	}
}

// Solve still works when the decomposition ran with a multi-round
// strategy (the factor references are fine band x segment tilings).
func TestSolveWithReplicatedMultiply(t *testing.T) {
	const n = 48
	opts := DefaultOptions(4)
	opts.NB = 12
	opts.Multiply = MultiplyReplicated
	a := workload.DiagonallyDominant(n, 41)
	b := workload.RandomRect(n, 5, 42)
	p, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	x, err := p.Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ax, err := matrix.Mul(a, x)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(ax, b); d > 1e-7 {
		t.Fatalf("A X differs from B by %g", d)
	}
}

func TestMulPlanJobs(t *testing.T) {
	cases := []struct {
		plan mulPlan
		want int
	}{
		{mulPlan{strategy: MultiplySingleRound, g1: 4, g2: 4, rho: 1}, 1},
		{mulPlan{strategy: MultiplyReplicated, g1: 4, g2: 2, rho: 2}, 2},
		{mulPlan{strategy: MultiplySpaceRound, g1: 4, g2: 4, rho: 3}, 3},
	}
	for _, c := range cases {
		if got := c.plan.jobs(); got != c.want {
			t.Errorf("%s rho=%d: jobs() = %d, want %d", c.plan.strategy, c.plan.rho, got, c.want)
		}
	}
}

func TestRoundsForMemoryEdgeCases(t *testing.T) {
	// A budget that cannot even hold the output block degenerates to one
	// inner column per round.
	if got := roundsForMemory(10, 1, 1, 8, 8, 8); got != 8 {
		t.Fatalf("tiny budget: rho = %d, want 8", got)
	}
	// An effectively unbounded budget needs a single round.
	if got := roundsForMemory(1<<40, 4, 4, 64, 64, 64); got != 1 {
		t.Fatalf("huge budget: rho = %d, want 1", got)
	}
	// The derived round count never exceeds the inner dimension.
	out := int64(64*64) / 16 * 8
	if got := roundsForMemory(out+1, 4, 4, 64, 4, 64); got != 4 {
		t.Fatalf("clamp: rho = %d, want inner 4", got)
	}
}

// Under fault injection withBackup pads a favored placement to
// dfs.DefaultReplication distinct nodes (at most m0) in ring order after
// the first node; clean runs keep the placement exactly.
func TestWithBackupPlacement(t *testing.T) {
	cases := []struct {
		m0      int
		durable bool
		in      []int
		want    []int
	}{
		{4, true, []int{2}, []int{2, 3, 0}},
		{4, true, []int{3}, []int{3, 0, 1}},       // wraps past the last node
		{4, true, []int{1, 2}, []int{1, 2, 3}},    // two copies gain a third
		{4, true, []int{2, 3}, []int{2, 3, 0}},    // padding skips held nodes
		{4, true, []int{0, 1, 2}, []int{0, 1, 2}}, // already at replication
		{2, true, []int{1}, []int{1, 0}},          // capped at m0
		{1, true, []int{0}, []int{0}},
		{4, false, []int{2}, []int{2}}, // clean runs keep exact placement
	}
	for _, c := range cases {
		g := mulGeom{m0: c.m0, durable: c.durable}
		in := append([]int(nil), c.in...)
		if got := g.withBackup(in); !slices.Equal(got, c.want) {
			t.Errorf("m0=%d durable=%v: withBackup(%v) = %v, want %v", c.m0, c.durable, c.in, got, c.want)
		}
		if !slices.Equal(in, c.in) {
			t.Errorf("m0=%d: withBackup modified its argument: %v", c.m0, in)
		}
	}
}

// readRegionTransposed must fall back to read-then-transpose when the
// underlying blocks are stored in natural orientation (TransposeU off).
func TestReadRegionTransposedNaturalFallback(t *testing.T) {
	fs := dfs.New(1, 1)
	u2 := workload.Random(4, 77)
	u2 = u2.Block(0, 4, 0, 4) // fresh copy
	left, right := u2.Block(0, 4, 0, 2), u2.Block(0, 4, 2, 4)
	if err := fs.WriteMatrix("T/U.0", left); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteMatrix("T/U.1", right); err != nil {
		t.Fatal(err)
	}
	ref := matRef{Rows: 4, Cols: 4, Blocks: []blockFile{
		{Path: "T/U.0", R0: 0, R1: 4, C0: 0, C1: 2},
		{Path: "T/U.1", R0: 0, R1: 4, C0: 2, C1: 4},
	}}
	got, err := readRegionTransposed(masterReader(fs), ref, 1, 3, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := u2.Transpose().Block(1, 3, 0, 4)
	if !bitIdentical(got, want) {
		t.Fatal("transposed fallback read differs from reference")
	}
}
