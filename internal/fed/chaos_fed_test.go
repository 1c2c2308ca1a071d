package fed

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/serve"
	"repro/internal/workload"
)

// The §7.4 drill, one level up: one shard of the fleet loses nodes
// mid-load while concurrent requests keep arriving. Every request must
// either recover in place (task re-execution + DFS re-replication inside
// the shard) or route elsewhere — and every returned inverse must be
// bit-identical to the fault-free answer. Zero wrong answers, zero
// failures.
func TestFleetSurvivesShardChaosBitIdentical(t *testing.T) {
	for _, strategy := range []core.MultiplyStrategy{core.MultiplySingleRound, core.MultiplyReplicated, core.MultiplySpaceRound} {
		t.Run(string(strategy), func(t *testing.T) { shardChaosDrill(t, strategy) })
	}
}

// shardChaosDrill runs the drill with every block-LU level's product on
// one multiply strategy, in the chaos shard and the clean fleet alike
// (the strategies differ in summation order, so in bits).
func shardChaosDrill(t *testing.T, strategy core.MultiplyStrategy) {
	const shards = 2

	// Fault-free reference fleet: same shard shape, no chaos. Digest
	// routing is deterministic, so request i runs under identical pipeline
	// options in both fleets and must produce identical bits.
	cc := shardConfig()
	cc.Opts.Multiply = strategy
	clean := mustFleet(t, Config{Shards: shards, Shard: cc})

	sc := shardConfig()
	sc.Opts.Multiply = strategy
	sc.Chaos = &chaos.Plan{
		Seed: 17,
		Events: []chaos.Event{
			{Tick: 5, Kind: chaos.Kill, On: chaos.OnAttempt, Node: chaos.VictimCurrent},
			{Tick: 40, Kind: chaos.Kill, On: chaos.OnAttempt, Node: chaos.VictimCurrent},
			{Tick: 70, Kind: chaos.Restart, On: chaos.OnAny, Node: chaos.VictimOldestDead},
		},
	}
	faulty := mustFleet(t, Config{Shards: shards, Shard: sc, ChaosShard: 0})

	// A duplicate-heavy request set: half the orders repeat so the dedup
	// and cache paths run under chaos too.
	specs := []struct {
		order int
		seed  int64
	}{
		{40, 1}, {48, 2}, {40, 1}, {56, 3}, {48, 2}, {40, 4},
		{64, 5}, {40, 1}, {56, 3}, {48, 6},
	}

	ctx := context.Background()
	want := make([]*matrix.Dense, len(specs))
	for i, sp := range specs {
		a := workload.DiagonallyDominant(sp.order, sp.seed)
		res, err := clean.Do(ctx, Request{Request: serve.Request{A: a}})
		if err != nil {
			t.Fatalf("reference request %d: %v", i, err)
		}
		want[i] = res.Out
	}

	var wg sync.WaitGroup
	got := make([]*matrix.Dense, len(specs))
	errs := make([]error, len(specs))
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, order int, seed int64) {
			defer wg.Done()
			a := workload.DiagonallyDominant(order, seed)
			res, err := faulty.Do(ctx, Request{Request: serve.Request{A: a}})
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = res.Out
		}(i, sp.order, sp.seed)
	}
	wg.Wait()

	for i := range specs {
		if errs[i] != nil {
			t.Fatalf("request %d failed under shard chaos: %v", i, errs[i])
		}
		if !bitIdentical(want[i], got[i]) {
			t.Fatalf("request %d: inverse under chaos differs from fault-free bits", i)
		}
	}

	// The drill must actually have hurt something: the chaos shard's
	// engine injected kills.
	st := faulty.Snapshot()
	cs := st.Shards[0].Serve.Chaos
	if cs == nil || cs.Kills == 0 {
		t.Fatalf("chaos shard injected no kills: %+v", cs)
	}
	if st.Failed != 0 {
		t.Fatalf("fleet reported %d failed requests", st.Failed)
	}
}

func bitIdentical(a, b *matrix.Dense) bool {
	if a == nil || b == nil || a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	ab, bb := new(bytes.Buffer), new(bytes.Buffer)
	if err := matrix.WriteBinary(ab, a); err != nil {
		return false
	}
	if err := matrix.WriteBinary(bb, b); err != nil {
		return false
	}
	return bytes.Equal(ab.Bytes(), bb.Bytes())
}
