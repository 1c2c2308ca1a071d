package workload

import (
	"math"
	"testing"

	"repro/internal/matrix"
)

func TestMixStreamDeterministic(t *testing.T) {
	mix := Mix{Entries: []MixEntry{{Order: 32, Weight: 5}, {Order: 64, Weight: 3}, {Order: 128, Weight: 2}}, DupProb: 0.3}
	a := mix.Stream(42).Take(200)
	b := mix.Stream(42).Take(200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs under same seed: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := mix.Stream(43).Take(200)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestMixStreamEntryOrderIrrelevant(t *testing.T) {
	// The same distribution written in a different entry order must give
	// the same stream — reproducibility should not hinge on flag order.
	m1 := Mix{Entries: []MixEntry{{Order: 32, Weight: 5}, {Order: 64, Weight: 3}}, DupProb: 0.2}
	m2 := Mix{Entries: []MixEntry{{Order: 64, Weight: 3}, {Order: 32, Weight: 5}}, DupProb: 0.2}
	a, b := m1.Stream(7).Take(100), m2.Stream(7).Take(100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d depends on entry order: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestMixStreamRespectsOrdersAndDuplicates(t *testing.T) {
	mix := Mix{Entries: []MixEntry{{Order: 16, Weight: 1}, {Order: 24, Weight: 1}}, DupProb: 0.5, History: 4}
	specs := mix.Stream(1).Take(400)
	seen := map[RequestSpec]bool{}
	dups := 0
	for _, sp := range specs {
		if sp.Order != 16 && sp.Order != 24 {
			t.Fatalf("order %d not in mix", sp.Order)
		}
		if sp.Dup {
			dups++
			fresh := sp
			fresh.Dup = false
			if !seen[fresh] {
				t.Fatalf("duplicate %+v never issued fresh", sp)
			}
		} else {
			seen[sp] = true
		}
	}
	if dups == 0 {
		t.Fatal("DupProb 0.5 produced no duplicates in 400 requests")
	}
	if dups > 300 {
		t.Fatalf("implausible duplicate count %d/400", dups)
	}
}

func TestMixZeroDupProbHasNoDuplicates(t *testing.T) {
	mix := Mix{Entries: []MixEntry{{Order: 16, Weight: 1}}, DupProb: 0}
	for _, sp := range mix.Stream(9).Take(100) {
		if sp.Dup {
			t.Fatal("duplicate emitted with DupProb 0")
		}
	}
}

func TestRequestSpecBuildDeterministic(t *testing.T) {
	a := RequestSpec{Order: 24, Seed: 11}.Build()
	b := RequestSpec{Order: 24, Seed: 11}.Build()
	if !matrix.Equal(a, b, 0) {
		t.Fatal("same spec built different matrices")
	}
	if a.Rows != 24 || a.Cols != 24 {
		t.Fatalf("dims %dx%d", a.Rows, a.Cols)
	}
}

func TestParseMix(t *testing.T) {
	entries, err := ParseMix(" 32:5, 64:3 ,128:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || entries[0].Order != 32 || entries[2].Weight != 2 {
		t.Fatalf("parsed %+v", entries)
	}
	for _, bad := range []string{"", "32", "0:1", "32:-1", "x:y"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) accepted", bad)
		}
	}
}

func TestMixHotKeysSkewStream(t *testing.T) {
	m := Mix{
		Entries: []MixEntry{{Order: 24, Weight: 1}, {Order: 40, Weight: 1}},
		HotKeys: 2,
		HotProb: 0.6,
	}
	const n = 2000
	specs := m.Stream(5).Take(n)
	hotSeen := map[[2]int64]int{}
	hotDraws := 0
	for _, sp := range specs {
		if sp.Hot {
			hotDraws++
			if !sp.Dup {
				t.Fatal("hot draw not marked Dup")
			}
			hotSeen[[2]int64{int64(sp.Order), sp.Seed}]++
		}
	}
	if len(hotSeen) != 2 {
		t.Fatalf("hot draws used %d distinct keys, want 2", len(hotSeen))
	}
	frac := float64(hotDraws) / n
	if frac < 0.5 || frac > 0.7 {
		t.Fatalf("hot fraction %.3f, want ~0.6", frac)
	}
	// Determinism: same (mix, seed) gives the same hot set and sequence.
	again := m.Stream(5).Take(n)
	for i := range specs {
		if specs[i] != again[i] {
			t.Fatalf("stream diverged at %d: %+v vs %+v", i, specs[i], again[i])
		}
	}
	// A different seed draws a different hot set.
	other := m.Stream(6).Take(n)
	diff := false
	for _, sp := range other {
		if sp.Hot && hotSeen[[2]int64{int64(sp.Order), sp.Seed}] == 0 {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("hot set identical across seeds")
	}
}

func TestParseMixRectangular(t *testing.T) {
	entries, err := ParseMix("32:5,512x8:2,64x64:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("parsed %+v", entries)
	}
	if entries[1].Order != 512 || entries[1].Cols != 8 {
		t.Fatalf("tall entry %+v", entries[1])
	}
	// An n x n shape normalizes to the square entry (Cols 0) so it shares
	// identity with the plain-order spelling.
	if entries[2].Order != 64 || entries[2].Cols != 0 {
		t.Fatalf("square-spelled-rect entry %+v", entries[2])
	}
	for _, bad := range []string{"8x512:1", "0x4:1", "32x0:1", "ax4:1", "4xb:1"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) accepted", bad)
		}
	}
}

func TestMixTallStreamDeterministic(t *testing.T) {
	mix := Mix{
		Entries: []MixEntry{{Order: 24, Weight: 1}, {Order: 256, Cols: 6, Weight: 1}},
		DupProb: 0.3,
	}
	a := mix.Stream(11).Take(300)
	b := mix.Stream(11).Take(300)
	talls := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs under same seed: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Tall() {
			talls++
			m := a[i].Build()
			if m.Rows != 256 || m.Cols != 6 {
				t.Fatalf("tall build %dx%d", m.Rows, m.Cols)
			}
			rhs := a[i].Rhs()
			if rhs.Rows != 256 || rhs.Cols != 1 {
				t.Fatalf("rhs %dx%d", rhs.Rows, rhs.Cols)
			}
			if !matrix.Equal(rhs, a[i].Rhs(), 0) {
				t.Fatal("Rhs not deterministic")
			}
		}
	}
	if talls == 0 {
		t.Fatal("no tall requests drawn from a 50% tall mix")
	}
}

// TestMixHotKeysComposeWithTallShapes proves the hot-key skew machinery
// and rectangular shapes compose: hot draws cover both square and tall
// specs, and no tall spec can collide with a square one on the
// (Order, Cols, Seed) identity even when rows and seed agree.
func TestMixHotKeysComposeWithTallShapes(t *testing.T) {
	m := Mix{
		Entries: []MixEntry{{Order: 32, Weight: 1}, {Order: 32, Cols: 4, Weight: 1}},
		HotKeys: 6,
		HotProb: 0.5,
	}
	specs := m.Stream(3).Take(3000)
	hotSquare, hotTall := 0, 0
	for _, sp := range specs {
		if !sp.Hot {
			continue
		}
		if sp.Tall() {
			hotTall++
		} else {
			hotSquare++
		}
	}
	if hotSquare == 0 || hotTall == 0 {
		t.Fatalf("hot draws did not cover both shapes: square %d tall %d", hotSquare, hotTall)
	}
	// Same rows, same seed, different shape: distinct identities, so the
	// serving digests (which cover the shape header) can never collide.
	sq := RequestSpec{Order: 32, Seed: 99}
	tall := RequestSpec{Order: 32, Cols: 4, Seed: 99}
	if sq == tall {
		t.Fatal("square and tall specs share an identity")
	}
	a, b := sq.Build(), tall.Build()
	if a.Rows == b.Rows && a.Cols == b.Cols {
		t.Fatalf("shapes collide: %dx%d", a.Rows, a.Cols)
	}
}

func TestMixWithoutHotKeysUnchanged(t *testing.T) {
	for _, sp := range defaultMix().Stream(1).Take(500) {
		if sp.Hot {
			t.Fatal("Hot spec from a mix with no hot keys")
		}
	}
}

func TestMutateRowsPerturbsExactlyK(t *testing.T) {
	base := DiagonallyDominant(32, 17)
	next := MutateRows(base, 4, 99)
	want := map[int]bool{}
	for _, r := range MutatedRows(32, 4, 99) {
		want[r] = true
	}
	changed := 0
	for i := 0; i < 32; i++ {
		diff := false
		for j := 0; j < 32; j++ {
			if base.At(i, j) != next.At(i, j) {
				diff = true
				break
			}
		}
		if diff {
			changed++
			if !want[i] {
				t.Fatalf("row %d changed but was not in MutatedRows", i)
			}
		}
	}
	if changed != 4 {
		t.Fatalf("%d rows changed, want 4", changed)
	}
	// Mutation preserves diagonal dominance (hence invertibility).
	for i := 0; i < 32; i++ {
		var off float64
		for j := 0; j < 32; j++ {
			if j != i {
				off += math.Abs(next.At(i, j))
			}
		}
		if math.Abs(next.At(i, i)) <= off {
			t.Fatalf("row %d lost diagonal dominance", i)
		}
	}
	// Deterministic, and the base is untouched.
	if !matrix.Equal(next, MutateRows(base, 4, 99), 0) {
		t.Fatal("same (base, k, seed) mutated differently")
	}
	if !matrix.Equal(base, DiagonallyDominant(32, 17), 0) {
		t.Fatal("MutateRows modified its input")
	}
	if !matrix.Equal(base, MutateRows(base, 0, 99), 0) {
		t.Fatal("k=0 mutation is not the identity")
	}
}

func TestMixDeltaStream(t *testing.T) {
	m := Mix{
		Entries:   []MixEntry{{Order: 24, Weight: 1}, {Order: 40, Weight: 1}},
		HotKeys:   3,
		HotProb:   0.3,
		DeltaProb: 0.4,
		DeltaRank: 2,
	}
	const n = 1000
	specs := m.Stream(8).Take(n)
	// Collect every plainly issued square base over the whole stream
	// first: a hot key may be delta-mutated before its own first plain
	// draw, but over 1000 requests each hot key is issued many times.
	bases := map[[2]int64]bool{}
	for _, sp := range specs {
		if !sp.Delta() && !sp.Tall() {
			bases[[2]int64{int64(sp.Order), sp.Seed}] = true
		}
	}
	deltas := 0
	for _, sp := range specs {
		if !sp.Delta() {
			continue
		}
		deltas++
		if sp.DeltaRank != 2 {
			t.Fatalf("delta rank %d, want 2", sp.DeltaRank)
		}
		if sp.Dup || sp.Hot {
			t.Fatalf("delta spec carries traffic markers: %+v", sp)
		}
		b := sp.Base()
		if b.Delta() {
			t.Fatal("Base() of a delta spec is still a delta")
		}
		if !bases[[2]int64{int64(b.Order), b.Seed}] {
			t.Fatalf("delta %+v derives from a base never issued", sp)
		}
		// The delta matrix differs from its base by exactly DeltaRank rows.
		got, want := sp.Build(), MutateRows(b.Build(), sp.DeltaRank, sp.DeltaSeed)
		if !matrix.Equal(got, want, 0) {
			t.Fatal("delta Build() does not match MutateRows of the base")
		}
	}
	frac := float64(deltas) / n
	if frac < 0.3 || frac > 0.5 {
		t.Fatalf("delta fraction %.3f, want ~0.4", frac)
	}
	// Determinism under the same seed.
	again := m.Stream(8).Take(n)
	for i := range specs {
		if specs[i] != again[i] {
			t.Fatalf("stream diverged at %d: %+v vs %+v", i, specs[i], again[i])
		}
	}
}

func TestMixDeltaRankClampedToBudget(t *testing.T) {
	m := Mix{
		Entries:   []MixEntry{{Order: 16, Weight: 1}},
		HotKeys:   1,
		HotProb:   0.2,
		DeltaProb: 0.5,
		DeltaRank: 32, // far beyond 16/4
	}
	for _, sp := range m.Stream(3).Take(200) {
		if sp.Delta() && sp.DeltaRank != 4 {
			t.Fatalf("delta rank %d not clamped to order/4", sp.DeltaRank)
		}
	}
}

func TestMixZeroDeltaProbUnchangedStream(t *testing.T) {
	// DeltaProb 0 must not consume rng draws: streams are byte-identical
	// to pre-delta ones, so recorded benchmark seeds stay comparable.
	base := Mix{Entries: []MixEntry{{Order: 16, Weight: 1}}, DupProb: 0.3}
	withField := base
	withField.DeltaRank = 5 // rank without probability is inert
	a, b := base.Stream(4).Take(100), withField.Stream(4).Take(100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("inert delta config changed the stream at %d", i)
		}
	}
}
