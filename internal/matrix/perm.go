package matrix

import "fmt"

// Perm is a row permutation stored compactly as the paper's array S
// (Section 4.1): a permutation matrix P has exactly one 1 per row and
// column, so it is represented by p where row i of P*A is row p[i] of A.
type Perm []int

// IdentityPerm returns the identity permutation of order n.
func IdentityPerm(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// IsValid reports whether p is a bijection on [0, len(p)).
func (p Perm) IsValid() bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Clone returns a copy of p.
func (p Perm) Clone() Perm {
	out := make(Perm, len(p))
	copy(out, p)
	return out
}

// Inverse returns q with q[p[i]] = i, the inverse permutation.
func (p Perm) Inverse() Perm {
	out := make(Perm, len(p))
	for i, v := range p {
		out[v] = i
	}
	return out
}

// Matrix returns the explicit permutation matrix P with P*A == ApplyRows.
func (p Perm) Matrix() *Dense {
	n := len(p)
	m := New(n, n)
	for i, v := range p {
		m.Set(i, v, 1)
	}
	return m
}

// ApplyRows returns P*A: row i of the result is row p[i] of a.
func (p Perm) ApplyRows(a *Dense) *Dense {
	if len(p) != a.Rows {
		panic(fmt.Sprintf("matrix: ApplyRows order %d vs %d rows", len(p), a.Rows))
	}
	out := New(a.Rows, a.Cols)
	for i, src := range p {
		copy(out.Row(i), a.Row(src))
	}
	return out
}

// ApplyCols returns A*P: column j of the result is column p[j] of a. This is
// the final pipeline step U^-1 L^-1 P of the paper (Section 4.1): pivoting
// during decomposition is undone by permuting the columns of U^-1 L^-1.
func (p Perm) ApplyCols(a *Dense) *Dense {
	if len(p) != a.Cols {
		panic(fmt.Sprintf("matrix: ApplyCols order %d vs %d cols", len(p), a.Cols))
	}
	out := New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		src := a.Row(i)
		dst := out.Row(i)
		for j, pj := range p {
			dst[pj] = src[j]
		}
	}
	return out
}

// Sign returns the permutation's parity: +1 for even, -1 for odd. It is
// det(P) for the corresponding permutation matrix.
func (p Perm) Sign() int {
	seen := make([]bool, len(p))
	sign := 1
	for i := range p {
		if seen[i] {
			continue
		}
		// Walk the cycle containing i; a cycle of length L contributes
		// (-1)^(L-1).
		length := 0
		for j := i; !seen[j]; j = p[j] {
			seen[j] = true
			length++
		}
		if length%2 == 0 {
			sign = -sign
		}
	}
	return sign
}

// Shift returns the permutation acting on rows [off, off+len(p)) of a larger
// matrix: each entry is increased by off. Used when augmenting P1 and P2 of
// the block decomposition (Algorithm 2, line 11).
func (p Perm) Shift(off int) Perm {
	out := make(Perm, len(p))
	for i, v := range p {
		out[i] = v + off
	}
	return out
}

// Augment builds the block-diagonal permutation diag(p, q) of the paper's
// "P is obtained by augmenting P1 and P2" step: p acts on the first len(p)
// rows, q on the remaining rows.
func Augment(p, q Perm) Perm {
	out := make(Perm, 0, len(p)+len(q))
	out = append(out, p...)
	out = append(out, q.Shift(len(p))...)
	return out
}
