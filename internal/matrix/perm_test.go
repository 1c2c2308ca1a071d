package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randPerm(rng *rand.Rand, n int) Perm {
	return Perm(rng.Perm(n))
}

func TestIdentityPerm(t *testing.T) {
	p := IdentityPerm(5)
	if !p.IsValid() {
		t.Fatal("identity perm invalid")
	}
	m := FromRows([][]float64{{1}, {2}, {3}, {4}, {5}})
	if !Equal(p.ApplyRows(m), m, 0) {
		t.Fatal("identity perm must not move rows")
	}
}

func TestPermIsValid(t *testing.T) {
	if !(Perm{2, 0, 1}).IsValid() {
		t.Fatal("valid perm rejected")
	}
	for _, bad := range []Perm{{0, 0, 1}, {0, 1, 3}, {-1, 0, 1}} {
		if bad.IsValid() {
			t.Fatalf("invalid perm %v accepted", bad)
		}
	}
}

func TestPermInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randPerm(rng, 16)
	inv := p.Inverse()
	for i, v := range p {
		if inv[v] != i {
			t.Fatalf("p⁻¹∘p not identity at %d: p=%v inv=%v", i, p, inv)
		}
	}
}

func TestPermMatrixAgreesWithApplyRows(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := randPerm(rng, 9)
	a := randDense(rng, 9, 9)
	viaMatrix, err := Mul(p.Matrix(), a)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(viaMatrix, p.ApplyRows(a), 0) {
		t.Fatal("P*A != ApplyRows(P, A)")
	}
}

func TestPermApplyColsAgreesWithMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	p := randPerm(rng, 8)
	a := randDense(rng, 6, 8)
	viaMatrix, err := Mul(a, p.Matrix())
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(viaMatrix, p.ApplyCols(a), 0) {
		t.Fatal("A*P != ApplyCols(P, A)")
	}
}

// TestPermPivotUndo verifies the paper's Section 4.1 claim: if PA = LU then
// A^-1 = U^-1 L^-1 P. With X = U^-1 L^-1 = (PA)^-1 the claim is the pure
// permutation identity (X·P)·A == X·(P·A): column-permuting X by P
// (ApplyCols) composes with row-pivoting A by P (ApplyRows).
func TestPermPivotUndo(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	p := randPerm(rng, 7)
	x := randDense(rng, 7, 7)
	a := randDense(rng, 7, 7)
	left, _ := Mul(p.ApplyCols(x), a)
	right, _ := Mul(x, p.ApplyRows(a))
	if !Equal(left, right, 1e-12) {
		t.Fatal("(XP)A != X(PA) for permutation P")
	}
}

func TestAugment(t *testing.T) {
	p := Perm{1, 0}
	q := Perm{2, 0, 1}
	aug := Augment(p, q)
	want := Perm{1, 0, 4, 2, 3}
	if len(aug) != 5 {
		t.Fatalf("len = %d", len(aug))
	}
	for i := range want {
		if aug[i] != want[i] {
			t.Fatalf("Augment = %v, want %v", aug, want)
		}
	}
	if !aug.IsValid() {
		t.Fatal("augmented perm invalid")
	}
}

func TestShift(t *testing.T) {
	p := Perm{1, 0}
	s := p.Shift(3)
	if s[0] != 4 || s[1] != 3 {
		t.Fatalf("Shift = %v", s)
	}
}

func TestCloneIndependent(t *testing.T) {
	p := Perm{1, 0, 2}
	c := p.Clone()
	c[0] = 2
	if p[0] != 1 {
		t.Fatal("Clone must copy")
	}
}

// Property: inverse of inverse is the original, for arbitrary sizes.
func TestQuickPermInverseInvolution(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		p := randPerm(rand.New(rand.NewSource(seed)), n)
		inv2 := p.Inverse().Inverse()
		for i := range p {
			if p[i] != inv2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Augment of two valid perms is always a valid perm.
func TestQuickAugmentValid(t *testing.T) {
	f := func(seed int64, aRaw, bRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randPerm(rng, int(aRaw%16)+1)
		q := randPerm(rng, int(bRaw%16)+1)
		return Augment(p, q).IsValid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
