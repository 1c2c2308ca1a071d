package incr

import (
	"math"

	"repro/internal/matrix"
)

// Sketch is a per-row fingerprint of a matrix: one 64-bit FNV-1a hash
// of each row's float64 bit patterns. Two sketches of same-shape
// matrices can be diffed in O(n) word compares to find candidate
// changed rows without touching the O(n²) payloads. A hash collision
// (two different rows with equal fingerprints) can only hide a changed
// row, never invent one; the residual guardrail catches the resulting
// bad update and forces the full-inversion fallback, so collisions
// cost latency, not correctness.
type Sketch struct {
	Rows int
	Cols int
	H    []uint64
}

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x1099511628211
)

// hashRow folds a row's float64 bits through FNV-1a. NaNs with
// different payloads hash differently, which is fine: the extractor
// re-reads the actual floats and the guardrail has the final word.
func hashRow(row []float64) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range row {
		b := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= fnvPrime64
		}
	}
	return h
}

// newSketch fingerprints every row of m.
func newSketch(m *matrix.Dense) *Sketch {
	s := &Sketch{Rows: m.Rows, Cols: m.Cols, H: make([]uint64, m.Rows)}
	for i := 0; i < m.Rows; i++ {
		s.H[i] = hashRow(m.Row(i))
	}
	return s
}

// DiffRows returns the rows whose fingerprints differ between s and
// the candidate sketch, giving up (ok=false) as soon as more than
// limit rows differ. Shapes must match exactly; a shape mismatch is
// reported as not-comparable rather than a panic.
func (s *Sketch) DiffRows(t *Sketch, limit int) (rows []int, ok bool) {
	if s.Rows != t.Rows || s.Cols != t.Cols {
		return nil, false
	}
	for i := 0; i < s.Rows; i++ {
		if s.H[i] != t.H[i] {
			if len(rows) == limit {
				return nil, false
			}
			rows = append(rows, i)
		}
	}
	return rows, true
}

// DiffRowsExact compares actual row contents (bit equality) between
// base and next, giving up once more than limit rows differ. This is
// the authoritative diff the extractor uses after the sketch proposes
// a candidate; it is O(n²) worst case but early-exits per row on the
// first differing element.
func DiffRowsExact(base, next *matrix.Dense, limit int) (rows []int, ok bool) {
	if base.Rows != next.Rows || base.Cols != next.Cols {
		return nil, false
	}
	for i := 0; i < base.Rows; i++ {
		br, nr := base.Row(i), next.Row(i)
		same := true
		for j := range br {
			if math.Float64bits(br[j]) != math.Float64bits(nr[j]) {
				same = false
				break
			}
		}
		if !same {
			if len(rows) == limit {
				return nil, false
			}
			rows = append(rows, i)
		}
	}
	return rows, true
}
