package mrinverse_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	mrinverse "repro"
	"repro/internal/lu"
)

// bitsDigest is the SHA-256 over the little-endian IEEE-754 bits of m's
// elements in row-major order.
func bitsDigest(m *mrinverse.Matrix) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range m.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenInverseBits pins the exact bits of the pipeline's inverse and
// of the local lu.Invert. The digests were recorded before the kernels were
// register-blocked and the block reads made copy-free: every kernel since
// must form each output element as one accumulator from +0 over ascending
// k, rounding after every multiply and add, so no digest may move. A
// deliberate change to a summation order has to re-record them (and
// ci/transfer_baseline.txt) in the same change.
func TestGoldenInverseBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; other targets may fuse multiply-adds")
	}
	cases := []struct {
		n, nb           int
		pipeline, local string
	}{
		{512, 64, "c44ad17b2bdbec04", "bb9f9d1db64bb08a"},
		{128, 8, "d022c3065f2f26dd", "66eb8ae84bf6d80b"},
		{200, 48, "49c19e692cd49775", "551f86f80905c39a"},
		{65, 16, "53ab3e7b9d2b744d", "fd13db218b3804db"},
		{37, 5, "527eb249878e96e3", "b9f8ad17026dc2f8"},
	}
	for _, c := range cases {
		if testing.Short() && c.n > 256 {
			continue
		}
		a := mrinverse.Random(c.n, 7)
		opts := mrinverse.DefaultOptions(8)
		opts.NB = c.nb
		inv, _, err := mrinverse.Invert(a, opts)
		if err != nil {
			t.Fatalf("Invert n=%d nb=%d: %v", c.n, c.nb, err)
		}
		if got := bitsDigest(inv)[:16]; got != c.pipeline {
			t.Errorf("pipeline n=%d nb=%d: digest %s, want %s", c.n, c.nb, got, c.pipeline)
		}
		loc, err := lu.Invert(a)
		if err != nil {
			t.Fatalf("lu.Invert n=%d: %v", c.n, err)
		}
		if got := bitsDigest(loc)[:16]; got != c.local {
			t.Errorf("lu.Invert n=%d: digest %s, want %s", c.n, got, c.local)
		}
	}
}
