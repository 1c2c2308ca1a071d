package incr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// updateDigest is the SHA-256 over the little-endian IEEE-754 bits of
// m's elements in row-major order.
func updateDigest(m *matrix.Dense) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range m.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestUpdateBits pins the exact bits of Update's output. The digests
// were recorded while the two n×n passes (A⁻¹U and VᵀA⁻¹) still ran on
// matrix.Mul, before they moved to matrix.MulTransB: both kernels form
// each output element as one accumulator from +0 over ascending k, so
// moving between them must not change a bit.
func TestUpdateBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; other targets may fuse multiply-adds")
	}
	cases := []struct {
		n, k int
		want string
	}{
		{64, 2, "771deb2c5cbdadcda1678438b017cff284e5449f5283650881fabc8472208aae"},
		{256, 8, "a4a5fab8cc9001b298e9c04e43e26c61d2b6ef1b13364fbb830451951d7334db"},
		{512, 16, "f2f1c1562bd2cf2bdddcf86e64fcfa1359ef35feb19a26dd072e67c6ef91597a"},
	}
	for _, c := range cases {
		if testing.Short() && c.n > 256 {
			continue
		}
		base := workload.DiagonallyDominant(c.n, int64(c.n))
		seed := int64(c.n + c.k)
		next := workload.MutateRows(base, c.k, seed)
		ainv, err := lu.Invert(base)
		if err != nil {
			t.Fatal(err)
		}
		u, v := RowDelta(base, next, workload.MutatedRows(c.n, c.k, seed))
		x, err := Update(ainv, u, v, 0)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", c.n, c.k, err)
		}
		if got := updateDigest(x); got != c.want {
			t.Errorf("n=%d k=%d: digest %s, want %s", c.n, c.k, got, c.want)
		}
	}
}
