package scalapack_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	mrinverse "repro"
	"repro/internal/matrix"
	"repro/internal/scalapack"
	"repro/internal/workload"
)

// TestGridInverseBits pins the exact bits and the communication counts of
// the process-grid engine, recorded before the column-layout engine was
// removed: a SHA-256 prefix over the little-endian bits of the inverse,
// the bytes transferred and the message count. The engine and the public
// facade over it must reproduce all three.
func TestGridInverseBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; other targets may fuse multiply-adds")
	}
	cases := []struct {
		n, procs, bs int
		digest       string
		bytes, msgs  int64
	}{
		{64, 4, 8, "d0d6486fdf16e10e", 183808, 755},
		{96, 8, 16, "58ac544c3edaa0e8", 832512, 2803},
		{130, 6, 32, "18eeb06eff4aa5c2", 1140360, 2643},
	}
	for _, c := range cases {
		a := workload.Random(c.n, 7)
		cfg := scalapack.Config{Procs: c.procs, BlockSize: c.bs}
		for name, invert := range map[string]func(*matrix.Dense, scalapack.Config) (*matrix.Dense, *scalapack.Stats, error){
			"scalapack.Invert":          scalapack.Invert,
			"mrinverse.InvertScaLAPACK": mrinverse.InvertScaLAPACK,
		} {
			inv, st, err := invert(a, cfg)
			if err != nil {
				t.Fatalf("%s n=%d p=%d bs=%d: %v", name, c.n, c.procs, c.bs, err)
			}
			if got := digest(inv); got != c.digest {
				t.Errorf("%s n=%d p=%d bs=%d: digest %s, want %s", name, c.n, c.procs, c.bs, got, c.digest)
			}
			if st.BytesTransferred != c.bytes || st.Messages != c.msgs {
				t.Errorf("%s n=%d p=%d bs=%d: %d bytes / %d messages, want %d / %d",
					name, c.n, c.procs, c.bs, st.BytesTransferred, st.Messages, c.bytes, c.msgs)
			}
		}
	}
}

// digest is the first 16 hex digits of the SHA-256 over the little-endian
// IEEE-754 bits of m's elements in row-major order.
func digest(m *matrix.Dense) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range m.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
