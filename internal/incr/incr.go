// Package incr is the rank-k incremental inversion subsystem: when a
// request misses the exact-match result cache but differs from a
// recently inverted base matrix A by a low-rank delta A' = A + U·Vᵀ,
// the Sherman–Morrison–Woodbury identity
//
//	(A + UVᵀ)⁻¹ = A⁻¹ − A⁻¹U (I + VᵀA⁻¹U)⁻¹ VᵀA⁻¹
//
// turns the cached A⁻¹ into the requested inverse in O(kn²) work
// instead of rerunning the O(n³) block-LU pipeline.
//
// The package has three parts. The delta detector (sketch.go,
// index.go) keeps a bounded LRU index of recently served base
// matrices, each with a per-row fingerprint sketch, and probes it on a
// cache miss to find a base within KMax changed rows. The update
// (Update, smw.go) applies the identity on the master: like the
// paper's block-LU leaves below the bound value nb, its O(kn²) passes
// run faster there than as MapReduce multiply jobs at the default KMax
// (EXPERIMENTS.md, "Incremental inversion"). The guardrail
// (SampledResidual) checks ‖A'·X − I‖ on sampled columns so a bad
// update (hash-collision miss in the sketch, ill-conditioned
// capacitance) is rejected and the caller falls back to full
// inversion instead of serving a wrong answer.
//
// The package is in the determinism-checked set: given the same base,
// request, and configuration, every function here produces bit-identical
// output, so the serving layer's chaos replay guarantees extend to the
// incremental path.
package incr

import "errors"

// ErrResidual reports that the updated inverse failed the sampled
// ‖A'·X − I‖ guardrail; the caller must recompute via full inversion.
var ErrResidual = errors.New("incr: residual guardrail rejected update")

// ErrCapacitance reports that the k×k capacitance matrix I + VᵀA⁻¹U is
// singular or too ill-conditioned to solve reliably (the SMW identity
// degenerates exactly when A + UVᵀ is singular or nearly so).
var ErrCapacitance = errors.New("incr: capacitance matrix singular or ill-conditioned")

// Defaults for Config's zero values.
const (
	// DefaultKMax bounds the delta rank the detector will extract. n/8
	// is where the measured update-vs-full win is still comfortable at
	// serving sizes; an absolute cap keeps tiny matrices from taking
	// updates that cost as much as full inversion.
	DefaultKMax = 32
	// DefaultMaxBases bounds the base-matrix index (each entry holds A
	// and A⁻¹, so the index is the dominant memory cost of the feature).
	DefaultMaxBases = 32
	// DefaultResidualTol is the sampled-column residual bound; the full
	// pipeline itself verifies against a similar 1e-6-grade check in
	// tests, so an update passing this is as trustworthy as a recompute.
	DefaultResidualTol = 1e-6
	// DefaultSampleCols is how many columns the guardrail probes.
	DefaultSampleCols = 8
	// DefaultCondMax is the capacitance condition-number ceiling beyond
	// which the update is refused (≈ eps⁻¹·tol: above it the k×k solve
	// can lose every digit the guardrail would demand).
	DefaultCondMax = 1e12
)

// Config tunes the incremental path. The zero value is disabled; use
// Enabled=true with zero fields for the defaults above.
type Config struct {
	// Enabled turns the subsystem on in the serving layer.
	Enabled bool
	// KMax bounds the extracted delta rank (changed rows). <=0 selects
	// DefaultKMax. A request more than min(KMax, n/4) rows away from
	// every indexed base is not updated; the caller runs the full
	// pipeline instead: past n/4 the 4kn² update flops approach the
	// pipeline's 2n³ and conditioning risk grows with k.
	KMax int
	// MaxBases bounds how many recent base matrices (A, A⁻¹, sketch)
	// the index retains. <=0 selects DefaultMaxBases.
	MaxBases int
	// ResidualTol is the sampled-column guardrail bound. <=0 selects
	// DefaultResidualTol.
	ResidualTol float64
	// SampleCols is how many columns the guardrail checks. <=0 selects
	// DefaultSampleCols (capped at n).
	SampleCols int
	// CondMax is the capacitance condition ceiling. <=0 selects
	// DefaultCondMax.
	CondMax float64
}

// WithDefaults returns cfg with zero fields replaced by the package
// defaults.
func (c Config) WithDefaults() Config {
	if c.KMax <= 0 {
		c.KMax = DefaultKMax
	}
	if c.MaxBases <= 0 {
		c.MaxBases = DefaultMaxBases
	}
	if c.ResidualTol <= 0 {
		c.ResidualTol = DefaultResidualTol
	}
	if c.SampleCols <= 0 {
		c.SampleCols = DefaultSampleCols
	}
	if c.CondMax <= 0 {
		c.CondMax = DefaultCondMax
	}
	return c
}

// EffectiveKMax is the delta-rank bound for an order-n request:
// min(KMax, n/4), at least 1.
func (c Config) EffectiveKMax(n int) int {
	k := c.KMax
	if k <= 0 {
		k = DefaultKMax
	}
	if n/4 < k {
		k = n / 4
	}
	if k < 1 {
		k = 1
	}
	return k
}

// Stats is the incremental path's counter snapshot, reported under
// /statz by the serving layer.
type Stats struct {
	// Probes counts cache misses that consulted the base index.
	Probes int64 `json:"probes"`
	// ProbeHits counts probes that found a base within KMax rows.
	ProbeHits int64 `json:"probe_hits"`
	// Updates counts requests served via a successful SMW update.
	Updates int64 `json:"updates"`
	// Declined counts probe hits where the cost model chose the full
	// pipeline anyway (k too close to n, or cluster-load crossover).
	Declined int64 `json:"declined"`
	// Fallbacks counts probe hits that started an update but fell back
	// to the full pipeline (capacitance failure or residual reject).
	Fallbacks int64 `json:"fallbacks"`
	// ResidualRejects counts updates rejected by the guardrail (a
	// subset of Fallbacks).
	ResidualRejects int64 `json:"residual_rejects"`
	// BasesIndexed is the current base-index occupancy.
	BasesIndexed int `json:"bases_indexed"`
}
