package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSignKnownPerms(t *testing.T) {
	cases := []struct {
		p    Perm
		want int
	}{
		{Perm{0}, 1},
		{Perm{0, 1, 2}, 1},
		{Perm{1, 0}, -1},
		{Perm{1, 0, 2}, -1},
		{Perm{1, 2, 0}, 1},  // 3-cycle: even
		{Perm{2, 1, 0}, -1}, // one transposition
		{Perm{1, 0, 3, 2}, 1},
	}
	for _, c := range cases {
		if got := c.p.Sign(); got != c.want {
			t.Errorf("Sign(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestSignMatchesDeterminantOfPermMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		p := Perm(rng.Perm(8))
		// Compute det of P by cofactor-free method: count inversions.
		inversions := 0
		for i := 0; i < len(p); i++ {
			for j := i + 1; j < len(p); j++ {
				if p[i] > p[j] {
					inversions++
				}
			}
		}
		want := 1
		if inversions%2 == 1 {
			want = -1
		}
		if got := p.Sign(); got != want {
			t.Fatalf("Sign(%v) = %d, inversion parity says %d", p, got, want)
		}
	}
}

// Property: sign is a homomorphism, sign(p∘q) = sign(p)·sign(q).
func TestQuickSignHomomorphism(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%10) + 2
		rng := rand.New(rand.NewSource(seed))
		p := Perm(rng.Perm(n))
		q := Perm(rng.Perm(n))
		pq := make(Perm, n)
		for i := range p {
			pq[i] = q[p[i]]
		}
		return pq.Sign() == p.Sign()*q.Sign()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
