package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/matrix"
)

// This file generates serving workloads: streams of inversion requests
// with a weighted size distribution and a controlled duplicate rate, the
// knobs that exercise a serving layer's admission, dedup, and cache
// paths. Streams are deterministic under a seed so a benchmark run is
// reproducible request-for-request.

// RequestSpec describes one generated request: a matrix identified by
// (Order, Cols, Seed). Two specs with equal fields materialize
// bit-identical matrices, which is what makes duplicates dedupable
// server-side.
type RequestSpec struct {
	// Order is the row count; Cols is the column count, with 0 meaning
	// square (an inversion request). Cols > 0 marks a tall least-squares
	// request of shape Order x Cols.
	Order int
	Cols  int
	Seed  int64
	// Dup marks specs that were drawn from the duplicate history rather
	// than freshly generated.
	Dup bool
	// Hot marks specs drawn from the mix's fixed hot-key set (skewed
	// traffic); hot draws are also duplicates by construction.
	Hot bool
	// DeltaRank, when > 0, marks an update request: the matrix is the
	// (Order, Seed) base with DeltaRank rows perturbed under DeltaSeed
	// (see MutateRows). The base spec — and hence its serving digest —
	// is recoverable via Base(), which is what lets a delta-aware client
	// attach an X-Base-Digest hint.
	DeltaRank int
	DeltaSeed int64
}

// Delta reports whether the spec is a mutated-base (update) request.
func (r RequestSpec) Delta() bool { return r.DeltaRank > 0 }

// Base returns the unmutated spec a delta request derives from; for
// non-delta specs it returns the spec itself with traffic markers
// cleared.
func (r RequestSpec) Base() RequestSpec {
	r.DeltaRank, r.DeltaSeed = 0, 0
	r.Dup, r.Hot = false, false
	return r
}

// Tall reports whether the spec is a rectangular (least-squares) request.
func (r RequestSpec) Tall() bool { return r.Cols > 0 && r.Cols != r.Order }

// Build materializes the request's matrix. Square specs are diagonally
// dominant, hence guaranteed invertible and well conditioned at serving
// scale; tall specs draw i.i.d. Uniform(-1,1) entries, which are
// full-rank and well conditioned with overwhelming probability at these
// aspect ratios.
func (r RequestSpec) Build() *matrix.Dense {
	if r.Tall() {
		return RandomRect(r.Order, r.Cols, r.Seed)
	}
	base := DiagonallyDominant(r.Order, r.Seed)
	if r.Delta() {
		return MutateRows(base, r.DeltaRank, r.DeltaSeed)
	}
	return base
}

// Rhs materializes the right-hand side paired with a tall spec's matrix:
// an Order x 1 vector drawn from a seed offset so it never aliases the
// matrix stream. Equal specs yield equal right-hand sides, preserving
// digest-level deduplication for /lstsq traffic.
func (r RequestSpec) Rhs() *matrix.Dense {
	return RandomRect(r.Order, 1, r.Seed^0x5eed51de)
}

// MixEntry weights one matrix shape in a request mix: Order rows by Cols
// columns, with Cols = 0 meaning square.
type MixEntry struct {
	Order  int
	Cols   int
	Weight float64
}

// Mix is a request-mix distribution: weighted matrix sizes plus a
// duplicate probability. With probability DupProb a request repeats one of
// the previous History requests (same order and seed); otherwise it draws
// a fresh seed.
type Mix struct {
	Entries []MixEntry
	DupProb float64
	History int // duplicate look-back window; default 8
	// HotKeys, when > 0, carves out a fixed set of that many matrices
	// drawn once at stream start; each request is one of them with
	// probability HotProb. This is the skewed "hot key" traffic shape:
	// a handful of matrices dominating the stream, concentrating load on
	// their digest-home shards in a federated deployment.
	HotKeys int
	HotProb float64
	// DeltaProb, when > 0, makes each request a delta mutation with that
	// probability: a previously issued square matrix (hot keys first,
	// falling back to the recent window) perturbed on DeltaRank rows.
	// This is the update-traffic shape the incremental inversion path
	// serves: the base inverse is already cached, the mutated matrix is
	// a rank-k row delta away.
	DeltaProb float64
	// DeltaRank is the number of rows each delta mutation perturbs;
	// 0 means 1. Ranks are clamped to a quarter of the base order, the
	// serving layer's own update budget.
	DeltaRank int
}

// defaultMix is a serving-scale mix: mostly small matrices with a heavy
// tail, one request in four repeating recent work.
func defaultMix() Mix {
	return Mix{
		Entries: []MixEntry{{Order: 24, Weight: 0.5}, {Order: 40, Weight: 0.3}, {Order: 64, Weight: 0.2}},
		DupProb: 0.25,
		History: 8,
	}
}

// ParseMix parses "shape:weight,shape:weight,...", where shape is either
// a square order ("64") or an explicit rowsxcols pair ("512x8") for tall
// least-squares entries — e.g. "32:5,64:3,512x8:2". Weights need not sum
// to 1; they are normalized on use.
func ParseMix(s string) ([]MixEntry, error) {
	var out []MixEntry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ow := strings.SplitN(part, ":", 2)
		if len(ow) != 2 {
			return nil, fmt.Errorf("workload: mix entry %q: want shape:weight", part)
		}
		shape := strings.TrimSpace(ow[0])
		var order, cols int
		var err error
		if rc := strings.SplitN(shape, "x", 2); len(rc) == 2 {
			order, err = strconv.Atoi(strings.TrimSpace(rc[0]))
			if err != nil || order < 1 {
				return nil, fmt.Errorf("workload: mix entry %q: bad rows", part)
			}
			cols, err = strconv.Atoi(strings.TrimSpace(rc[1]))
			if err != nil || cols < 1 {
				return nil, fmt.Errorf("workload: mix entry %q: bad cols", part)
			}
			if cols > order {
				return nil, fmt.Errorf("workload: mix entry %q: wide shapes (cols > rows) are not servable", part)
			}
			if cols == order {
				cols = 0 // normalize: an n x n entry is the square entry
			}
		} else {
			order, err = strconv.Atoi(shape)
			if err != nil || order < 1 {
				return nil, fmt.Errorf("workload: mix entry %q: bad order", part)
			}
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(ow[1]), 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("workload: mix entry %q: bad weight", part)
		}
		out = append(out, MixEntry{Order: order, Cols: cols, Weight: w})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload: empty mix %q", s)
	}
	return out, nil
}

// MixStream draws a deterministic sequence of RequestSpecs from a Mix.
type MixStream struct {
	mix    Mix
	rng    *rand.Rand
	cum    []float64 // cumulative normalized weights, aligned with Entries
	recent []RequestSpec
	hot    []RequestSpec
}

// Stream starts a request stream; equal (mix, seed) pairs yield equal
// request sequences.
func (m Mix) Stream(seed int64) *MixStream {
	if m.History <= 0 {
		m.History = 8
	}
	if len(m.Entries) == 0 {
		m.Entries = defaultMix().Entries
	}
	// Sort by shape so the cumulative table (and hence the stream) does
	// not depend on caller-side entry ordering of the same distribution.
	entries := append([]MixEntry(nil), m.Entries...)
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Order != entries[j].Order {
			return entries[i].Order < entries[j].Order
		}
		return entries[i].Cols < entries[j].Cols
	})
	m.Entries = entries
	var total float64
	for _, e := range m.Entries {
		total += e.Weight
	}
	cum := make([]float64, len(m.Entries))
	acc := 0.0
	for i, e := range m.Entries {
		acc += e.Weight / total
		cum[i] = acc
	}
	st := &MixStream{mix: m, rng: rand.New(rand.NewSource(seed)), cum: cum}
	// The hot-key set is drawn first so it is a pure function of
	// (mix, seed) and does not shift as the stream advances.
	for i := 0; i < m.HotKeys; i++ {
		order, cols := st.drawShape()
		st.hot = append(st.hot, RequestSpec{
			Order: order, Cols: cols, Seed: st.rng.Int63(), Hot: true, Dup: true,
		})
	}
	return st
}

// drawShape samples one matrix shape from the weighted distribution;
// cols is 0 for square entries.
func (st *MixStream) drawShape() (order, cols int) {
	u := st.rng.Float64()
	last := st.mix.Entries[len(st.mix.Entries)-1]
	order, cols = last.Order, last.Cols
	for i, c := range st.cum {
		if u <= c {
			order, cols = st.mix.Entries[i].Order, st.mix.Entries[i].Cols
			break
		}
	}
	return order, cols
}

// nextDelta draws a delta-mutation request derived from an already
// issued square spec, preferring the hot set (whose bases the server has
// almost certainly inverted and cached) over the recent window. It
// reports false when no square base exists yet.
func (st *MixStream) nextDelta() (RequestSpec, bool) {
	cands := squareSpecs(st.hot)
	if len(cands) == 0 {
		cands = squareSpecs(st.recent)
	}
	if len(cands) == 0 {
		return RequestSpec{}, false
	}
	base := cands[st.rng.Intn(len(cands))]
	k := st.mix.DeltaRank
	if k <= 0 {
		k = 1
	}
	if budget := base.Order / 4; budget >= 1 && k > budget {
		k = budget
	}
	spec := base.Base()
	spec.DeltaRank = k
	spec.DeltaSeed = st.rng.Int63()
	return spec, true
}

func squareSpecs(specs []RequestSpec) []RequestSpec {
	var out []RequestSpec
	for _, sp := range specs {
		if !sp.Tall() {
			out = append(out, sp)
		}
	}
	return out
}

// Next draws the next request of the stream.
func (st *MixStream) Next() RequestSpec {
	// The delta branch draws from the rng only when enabled, so streams
	// with DeltaProb 0 are byte-identical to pre-delta streams.
	if st.mix.DeltaProb > 0 && st.rng.Float64() < st.mix.DeltaProb {
		if spec, ok := st.nextDelta(); ok {
			return spec
		}
	}
	if len(st.hot) > 0 && st.rng.Float64() < st.mix.HotProb {
		return st.hot[st.rng.Intn(len(st.hot))]
	}
	if len(st.recent) > 0 && st.rng.Float64() < st.mix.DupProb {
		spec := st.recent[st.rng.Intn(len(st.recent))]
		spec.Dup = true
		return spec
	}
	order, cols := st.drawShape()
	spec := RequestSpec{Order: order, Cols: cols, Seed: st.rng.Int63()}
	st.recent = append(st.recent, spec)
	if len(st.recent) > st.mix.History {
		st.recent = st.recent[1:]
	}
	return spec
}

// Take draws the next n requests.
func (st *MixStream) Take(n int) []RequestSpec {
	out := make([]RequestSpec, n)
	for i := range out {
		out[i] = st.Next()
	}
	return out
}
