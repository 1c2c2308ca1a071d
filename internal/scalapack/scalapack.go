// Package scalapack is the repository's stand-in for the paper's
// comparison target: matrix inversion in the ScaLAPACK style — a
// distributed-memory, block-cyclic, message-passing implementation of LU
// factorization with partial pivoting (the PDGETRF analog) followed by
// inversion from the factors (the PDGETRI analog), running over a
// channel-based MPI substrate (mpi.go).
//
// Layout: the process grid the paper uses for its ScaLAPACK runs — "we
// set the process grid to f1 x f2, where m0 = f1 x f2 is the number of
// compute nodes" with 128 x 128 distribution blocks (Section 7.5).
// Element (i, j) lives on process (⌊i/bs⌋ mod pr, ⌊j/bs⌋ mod pc). Each
// elimination step broadcasts its multiplier column along process rows
// and its pivot row along process columns, O(n) x (pr + pc) per step;
// inversion then requires every rank to hold both triangular factors, for
// a total transfer that grows as m0·n² — the term that makes ScaLAPACK
// lose to the MapReduce pipeline at scale (Tables 1 and 2, Figure 8).
//
// All intermediate state stays in memory, matching the paper's remark
// that "in our ScaLAPACK implementation, all intermediate data is stored
// in memory, such that the matrix is read only once and written only
// once". Every rank reads its owned elements of the input directly, so
// the transfer count covers the solver's own communication and the
// gather of the inverse at rank 0, not an input scatter.
package scalapack

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/matrix"
	"repro/internal/obs"
)

// ErrSingular is returned when a pivot column is zero to working precision.
var ErrSingular = errors.New("scalapack: matrix is singular")

// DefaultBlockSize is the paper's ScaLAPACK distribution block (they
// "first partitioned into blocks of dimension 128 x 128", Section 7.5).
const DefaultBlockSize = 128

// Config selects the process count and distribution block size.
type Config struct {
	// Procs is the total process count m0; the grid is the near-square
	// factorization pr x pc (pr >= pc) computed by normalize.
	Procs     int
	BlockSize int
	// Tracer, when non-nil, records the run as a span carrying the
	// communicator's total and per-rank send/receive volumes.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives the MPI communication counters.
	Metrics *obs.Registry
}

func (c *Config) normalize() (pr, pc int) {
	if c.Procs < 1 {
		c.Procs = 1
	}
	if c.BlockSize < 1 {
		c.BlockSize = DefaultBlockSize
	}
	for f := 1; f*f <= c.Procs; f++ {
		if c.Procs%f == 0 {
			pc = f
		}
	}
	return c.Procs / pc, pc
}

// Stats reports the run's communication volume.
type Stats struct {
	BytesTransferred int64
	Messages         int64
}

// message tags; each communication round offsets them by a fresh
// multiple of tagStride so rounds never collide.
const (
	tagPivCand = iota
	tagPivDecision
	tagSwap
	tagAkk
	tagLseg
	tagUseg
	tagGather
	tagResult
	tagStride
)

// Invert computes A^-1 on a pr x pc process grid and reports
// communication statistics.
func Invert(a *matrix.Dense, cfg Config) (*matrix.Dense, *Stats, error) {
	if !a.IsSquare() {
		return nil, nil, fmt.Errorf("scalapack: input is %dx%d, not square", a.Rows, a.Cols)
	}
	pr, pc := cfg.normalize()
	n := a.Rows
	if n == 0 {
		return matrix.New(0, 0), &Stats{}, nil
	}
	world := newWorld(cfg.Procs)
	world.AttachMetrics(cfg.Metrics)
	span := cfg.Tracer.StartSpan("scalapack.invert", obs.KindPipeline)
	span.SetAttr("order", int64(n))
	span.SetAttr("grid_rows", int64(pr))
	span.SetAttr("grid_cols", int64(pc))
	out := matrix.New(n, n)
	err := runWorld(world, func(c *comm) error {
		return rankProgram(c, a, out, n, pr, pc, cfg.BlockSize)
	})
	finishWorldSpan(span, world, err)
	if err != nil {
		return nil, nil, err
	}
	return out, &Stats{
		BytesTransferred: world.BytesSent(),
		Messages:         world.MessagesSent(),
	}, nil
}

// finishWorldSpan closes a run span with the communicator's total and
// per-rank volumes — the Tables 1-2 "Transfer" attribution per rank.
func finishWorldSpan(span *obs.Span, world *commWorld, err error) {
	if span == nil {
		return
	}
	span.SetAttr("mpi.bytes_sent", world.BytesSent())
	span.SetAttr("mpi.messages", world.MessagesSent())
	for r := 0; r < world.Size(); r++ {
		span.SetAttr(fmt.Sprintf("mpi.rank%d.bytes_sent", r), world.RankBytesSent(r))
		span.SetAttr(fmt.Sprintf("mpi.rank%d.bytes_recv", r), world.RankBytesRecv(r))
	}
	if err != nil {
		span.SetLabel("error", err.Error())
	}
	span.Finish()
}

// grid holds one rank's view of the grid.
type grid struct {
	c          *comm
	n, pr, pc  int
	bs         int
	myRow      int
	myCol      int
	local      *matrix.Dense // full-size buffer; only owned elements valid
	rowOwned   []bool
	colOwned   []bool
	tagCounter int
}

func (g *grid) rowOwner(i int) int        { return (i / g.bs) % g.pr }
func (g *grid) colOwner(j int) int        { return (j / g.bs) % g.pc }
func (g *grid) rankOf(prow, pcol int) int { return prow*g.pc + pcol }

// tags returns a fresh tag block for one communication round.
func (g *grid) tags() int {
	g.tagCounter += tagStride
	return g.tagCounter
}

// rankProgram is the per-rank program: factorize, allgather the factors,
// invert interleaved columns, gather the inverse at rank 0.
func rankProgram(c *comm, a, out *matrix.Dense, n, pr, pc, bs int) error {
	g := &grid{
		c: c, n: n, pr: pr, pc: pc, bs: bs,
		myRow: c.Rank() / pc, myCol: c.Rank() % pc,
		local:    matrix.New(n, n),
		rowOwned: make([]bool, n),
		colOwned: make([]bool, n),
	}
	for i := 0; i < n; i++ {
		g.rowOwned[i] = g.rowOwner(i) == g.myRow
	}
	for j := 0; j < n; j++ {
		g.colOwned[j] = g.colOwner(j) == g.myCol
	}
	// Every rank initializes its owned elements from the caller-held
	// input (a scatter in spirit; byte accounting focuses on the solver's
	// own communication, as the paper's Tables do for the factorization).
	for i := 0; i < n; i++ {
		if !g.rowOwned[i] {
			continue
		}
		for j := 0; j < n; j++ {
			if g.colOwned[j] {
				g.local.Set(i, j, a.At(i, j))
			}
		}
	}

	perm := matrix.IdentityPerm(n)
	for k := 0; k < n; k++ {
		piv, err := g.step(k)
		if err != nil {
			return err
		}
		perm[k], perm[piv] = perm[piv], perm[k]
	}

	// Allgather the factored matrix so every rank holds L and U, then
	// invert owned columns — the Table 2 m0·n² transfer term.
	full, err := g.allgather()
	if err != nil {
		return err
	}
	return g.invertColumns(full, perm, out)
}

// step performs elimination step k and returns the pivot row.
func (g *grid) step(k int) (int, error) {
	base := g.tags()
	co := g.colOwner(k)
	coordinator := g.rankOf(0, co)

	// --- pivot search within process column co ---
	if g.myCol == co {
		bestV, bestI := 0.0, -1
		for i := k; i < g.n; i++ {
			if g.rowOwned[i] {
				if v := math.Abs(g.local.At(i, k)); v > bestV {
					bestV, bestI = v, i
				}
			}
		}
		if g.c.Rank() == coordinator {
			for r := 1; r < g.pr; r++ {
				m := g.c.Recv(g.rankOf(r, co), base+tagPivCand)
				cand := g.c.RecvInts(g.rankOf(r, co), base+tagPivCand)
				if m[0] > bestV {
					bestV, bestI = m[0], cand[0]
				}
			}
			if bestV < 1e-300 {
				bestI = -1
			}
			// Decision goes to every rank in the world.
			for r := 0; r < g.c.Size(); r++ {
				if r != g.c.Rank() {
					g.c.SendInts(r, base+tagPivDecision, []int{bestI})
				}
			}
			if bestI < 0 {
				return 0, fmt.Errorf("scalapack: zero pivot at column %d: %w", k, ErrSingular)
			}
			return g.finishStep(k, bestI, base)
		}
		g.c.Send(coordinator, base+tagPivCand, []float64{bestV})
		g.c.SendInts(coordinator, base+tagPivCand, []int{bestI})
	}
	dec := g.c.RecvInts(coordinator, base+tagPivDecision)
	if dec[0] < 0 {
		return 0, fmt.Errorf("scalapack: zero pivot at column %d (remote): %w", k, ErrSingular)
	}
	return g.finishStep(k, dec[0], base)
}

// finishStep applies the row swap, computes multipliers, broadcasts the
// panels, and updates the trailing submatrix for step k.
func (g *grid) finishStep(k, piv, base int) (int, error) {
	n := g.n
	// --- row swap k <-> piv across all owned columns ---
	if piv != k {
		rk, rp := g.rowOwner(k), g.rowOwner(piv)
		switch {
		case rk == rp:
			if g.myRow == rk {
				for j := 0; j < n; j++ {
					if g.colOwned[j] {
						vk, vp := g.local.At(k, j), g.local.At(piv, j)
						g.local.Set(k, j, vp)
						g.local.Set(piv, j, vk)
					}
				}
			}
		case g.myRow == rk || g.myRow == rp:
			myI, otherRow := k, rp
			if g.myRow == rp {
				myI, otherRow = piv, rk
			}
			partner := g.rankOf(otherRow, g.myCol)
			seg := g.collectRowSegment(myI)
			g.c.Send(partner, base+tagSwap, seg)
			theirs := g.c.Recv(partner, base+tagSwap)
			g.scatterRowSegment(myI, theirs)
		}
	}

	co := g.colOwner(k)
	rowK := g.rowOwner(k)

	// --- multipliers in column k (process column co only) ---
	if g.myCol == co {
		var akk float64
		holder := g.rankOf(rowK, co)
		if g.c.Rank() == holder {
			akk = g.local.At(k, k)
			for r := 0; r < g.pr; r++ {
				if dst := g.rankOf(r, co); dst != holder {
					g.c.Send(dst, base+tagAkk, []float64{akk})
				}
			}
		} else {
			akk = g.c.Recv(holder, base+tagAkk)[0]
		}
		inv := 1 / akk
		for i := k + 1; i < n; i++ {
			if g.rowOwned[i] {
				g.local.Set(i, k, g.local.At(i, k)*inv)
			}
		}
	}

	// --- broadcast l segments along process rows ---
	// The rank in my process row that sits in column co owns exactly my
	// rows' multipliers.
	lsrc := g.rankOf(g.myRow, co)
	lseg := make([]float64, 0, n-k-1)
	if g.c.Rank() == lsrc {
		for i := k + 1; i < n; i++ {
			if g.rowOwned[i] {
				lseg = append(lseg, g.local.At(i, k))
			}
		}
		for pcj := 0; pcj < g.pc; pcj++ {
			if dst := g.rankOf(g.myRow, pcj); dst != lsrc {
				g.c.Send(dst, base+tagLseg, lseg)
			}
		}
	} else {
		lseg = g.c.Recv(lsrc, base+tagLseg)
	}
	lvals := make([]float64, n) // indexed by global row
	idx := 0
	for i := k + 1; i < n; i++ {
		if g.rowOwned[i] {
			lvals[i] = lseg[idx]
			idx++
		}
	}

	// --- broadcast u segments (row k) along process columns ---
	usrc := g.rankOf(rowK, g.myCol)
	useg := make([]float64, 0, n-k-1)
	if g.c.Rank() == usrc {
		for j := k + 1; j < n; j++ {
			if g.colOwned[j] {
				useg = append(useg, g.local.At(k, j))
			}
		}
		for pri := 0; pri < g.pr; pri++ {
			if dst := g.rankOf(pri, g.myCol); dst != usrc {
				g.c.Send(dst, base+tagUseg, useg)
			}
		}
	} else {
		useg = g.c.Recv(usrc, base+tagUseg)
	}
	uvals := make([]float64, n) // indexed by global col
	idx = 0
	for j := k + 1; j < n; j++ {
		if g.colOwned[j] {
			uvals[j] = useg[idx]
			idx++
		}
	}

	// --- trailing update on owned elements ---
	for i := k + 1; i < n; i++ {
		if !g.rowOwned[i] || lvals[i] == 0 {
			continue
		}
		li := lvals[i]
		row := g.local.Row(i)
		for j := k + 1; j < n; j++ {
			if g.colOwned[j] && uvals[j] != 0 {
				row[j] -= li * uvals[j]
			}
		}
	}
	return piv, nil
}

// collectRowSegment gathers row i's owned-column values in column order.
func (g *grid) collectRowSegment(i int) []float64 {
	seg := make([]float64, 0, g.n/g.pc+g.bs)
	for j := 0; j < g.n; j++ {
		if g.colOwned[j] {
			seg = append(seg, g.local.At(i, j))
		}
	}
	return seg
}

// scatterRowSegment writes owned-column values back into row i.
func (g *grid) scatterRowSegment(i int, seg []float64) {
	idx := 0
	for j := 0; j < g.n; j++ {
		if g.colOwned[j] {
			g.local.Set(i, j, seg[idx])
			idx++
		}
	}
}

// allgather assembles the full factored matrix on every rank.
func (g *grid) allgather() (*matrix.Dense, error) {
	base := g.tags()
	n := g.n
	full := matrix.New(n, n)
	// Pack my owned elements.
	mine := make([]float64, 0, n*n/(g.pr*g.pc)+n)
	for i := 0; i < n; i++ {
		if !g.rowOwned[i] {
			continue
		}
		for j := 0; j < n; j++ {
			if g.colOwned[j] {
				mine = append(mine, g.local.At(i, j))
			}
		}
	}
	size := g.c.Size()
	for r := 0; r < size; r++ {
		var buf []float64
		if r == g.c.Rank() {
			buf = mine
			for dst := 0; dst < size; dst++ {
				if dst != r {
					g.c.Send(dst, base+tagGather, buf)
				}
			}
		} else {
			buf = g.c.Recv(r, base+tagGather)
		}
		// Unpack rank r's elements.
		rRow, rCol := r/g.pc, r%g.pc
		idx := 0
		for i := 0; i < n; i++ {
			if (i/g.bs)%g.pr != rRow {
				continue
			}
			for j := 0; j < n; j++ {
				if (j/g.bs)%g.pc == rCol {
					full.Set(i, j, buf[idx])
					idx++
				}
			}
		}
	}
	return full, nil
}

// invertColumns computes this rank's interleaved columns of A^-1 from the
// gathered factors and sends them to rank 0, which assembles out.
func (g *grid) invertColumns(full *matrix.Dense, perm matrix.Perm, out *matrix.Dense) error {
	base := g.tags()
	n := g.n
	size := g.c.Size()
	pinv := perm.Inverse()
	me := g.c.Rank()

	colOf := func(j int) int { return j % size }
	lcol := make([]float64, n)
	var mine []float64
	var myCols []int
	for j := 0; j < n; j++ {
		if colOf(j) != me {
			continue
		}
		k := pinv[j]
		for i := 0; i < n; i++ {
			lcol[i] = 0
		}
		lcol[k] = 1
		for i := k + 1; i < n; i++ {
			s := 0.0
			for t := k; t < i; t++ {
				if lcol[t] != 0 {
					s += full.At(i, t) * lcol[t]
				}
			}
			lcol[i] = -s
		}
		for i := n - 1; i >= 0; i-- {
			s := lcol[i]
			for t := i + 1; t < n; t++ {
				s -= full.At(i, t) * lcol[t]
			}
			lcol[i] = s / full.At(i, i)
		}
		myCols = append(myCols, j)
		mine = append(mine, lcol...)
	}

	if me == 0 {
		place := func(cols []int, data []float64) {
			for ci, j := range cols {
				for i := 0; i < n; i++ {
					out.Set(i, j, data[ci*n+i])
				}
			}
		}
		place(myCols, mine)
		for r := 1; r < size; r++ {
			var cols []int
			for j := 0; j < n; j++ {
				if colOf(j) == r {
					cols = append(cols, j)
				}
			}
			if len(cols) == 0 {
				continue
			}
			data := g.c.Recv(r, base+tagResult)
			place(cols, data)
		}
		return nil
	}
	if len(myCols) > 0 {
		g.c.Send(0, base+tagResult, mine)
	}
	return nil
}
