// Package mpi is a minimal message-passing substrate modeled on the MPI
// primitives ScaLAPACK uses: rank-addressed, tagged point-to-point sends
// and receives, implemented over Go channels.
//
// The HPDC 2014 paper compares its MapReduce inverter against ScaLAPACK
// over MPICH; this package lets the repository's ScaLAPACK-style baseline
// (package scalapack) run for real, with per-rank byte counters exposing
// the communication volumes of the paper's Tables 1 and 2.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// message is one tagged payload in flight.
type message struct {
	from, tag int
	data      []float64
	ints      []int
}

// World is a communicator over size ranks.
type World struct {
	size   int
	queues []chan message

	bytesSent  atomic.Int64
	msgsSent   atomic.Int64
	maxInbox   int
	perRankTxB []atomic.Int64
	perRankRxB []atomic.Int64

	// metric instruments are resolved once in AttachMetrics; nil-safe
	// no-ops otherwise.
	mBytesSent *obs.Counter
	mMsgsSent  *obs.Counter
}

// AttachMetrics mirrors the world's communication accounting into reg.
// Call before launching ranks; nil detaches.
func (w *World) AttachMetrics(reg *obs.Registry) {
	w.mBytesSent = reg.Counter("mpi.bytes_sent")
	w.mMsgsSent = reg.Counter("mpi.messages")
}

// NewWorld creates a communicator with the given number of ranks.
func NewWorld(size int) *World {
	if size < 1 {
		size = 1
	}
	w := &World{
		size:       size,
		queues:     make([]chan message, size),
		perRankTxB: make([]atomic.Int64, size),
		perRankRxB: make([]atomic.Int64, size),
		maxInbox:   1024,
	}
	for i := range w.queues {
		w.queues[i] = make(chan message, w.maxInbox)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// BytesSent returns total float64-payload bytes sent so far (8 bytes per
// element plus 8 per int), the Table 1/2 "Transfer" metric.
func (w *World) BytesSent() int64 { return w.bytesSent.Load() }

// MessagesSent returns the number of point-to-point messages.
func (w *World) MessagesSent() int64 { return w.msgsSent.Load() }

// RankBytesSent returns the bytes sent by one rank.
func (w *World) RankBytesSent(rank int) int64 { return w.perRankTxB[rank].Load() }

// RankBytesRecv returns the bytes received (consumed) by one rank.
func (w *World) RankBytesRecv(rank int) int64 { return w.perRankRxB[rank].Load() }

// Comm is one rank's endpoint.
type Comm struct {
	w    *World
	rank int
}

// Rank returns c's rank id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.w.size }

// At returns the endpoint for a rank; used to launch rank goroutines.
func (w *World) At(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: rank %d out of range %d", rank, w.size))
	}
	return &Comm{w: w, rank: rank}
}

// Send delivers data to rank dst with a tag. The payload is copied, so the
// caller may reuse its buffer. Send blocks only if dst's inbox is full.
func (c *Comm) Send(dst, tag int, data []float64) {
	c.sendMsg(dst, tag, append([]float64(nil), data...), nil)
}

// SendInts delivers an int payload (pivot indices and the like).
func (c *Comm) SendInts(dst, tag int, data []int) {
	c.sendMsg(dst, tag, nil, append([]int(nil), data...))
}

func (c *Comm) sendMsg(dst, tag int, data []float64, ints []int) {
	if dst < 0 || dst >= c.w.size {
		panic(fmt.Sprintf("mpi: send to rank %d of %d", dst, c.w.size))
	}
	n := int64(8*len(data) + 8*len(ints))
	c.w.bytesSent.Add(n)
	c.w.perRankTxB[c.rank].Add(n)
	c.w.msgsSent.Add(1)
	c.w.mBytesSent.Add(n)
	c.w.mMsgsSent.Add(1)
	c.w.queues[dst] <- message{from: c.rank, tag: tag, data: data, ints: ints}
}

// msgBytes is the accounted payload size of a message.
func msgBytes(m message) int64 { return int64(8*len(m.data) + 8*len(m.ints)) }

// Recv blocks until a message with the given source and tag arrives and
// returns its float payload. Out-of-order messages with other (src, tag)
// pairs are buffered. src < 0 matches any source.
func (c *Comm) Recv(src, tag int) []float64 {
	m := c.recvMatch(src, tag)
	return m.data
}

// RecvInts is Recv for int payloads.
func (c *Comm) RecvInts(src, tag int) []int {
	m := c.recvMatch(src, tag)
	return m.ints
}

// pending holds out-of-order messages per rank. It lives in a map keyed by
// rank inside World to keep Comm value-light; protected by pendMu.
var (
	pendMu  sync.Mutex
	pending = map[*World]map[int][]message{}
)

func (c *Comm) recvMatch(src, tag int) message {
	// Check the stash first.
	pendMu.Lock()
	stash := pending[c.w]
	if stash == nil {
		stash = map[int][]message{}
		pending[c.w] = stash
	}
	for i, m := range stash[c.rank] {
		if (src < 0 || m.from == src) && m.tag == tag {
			stash[c.rank] = append(stash[c.rank][:i], stash[c.rank][i+1:]...)
			pendMu.Unlock()
			c.w.perRankRxB[c.rank].Add(msgBytes(m))
			return m
		}
	}
	pendMu.Unlock()
	for {
		m := <-c.w.queues[c.rank]
		if (src < 0 || m.from == src) && m.tag == tag {
			c.w.perRankRxB[c.rank].Add(msgBytes(m))
			return m
		}
		pendMu.Lock()
		pending[c.w][c.rank] = append(pending[c.w][c.rank], m)
		pendMu.Unlock()
	}
}

// RunWorld launches fn on every rank of w concurrently and waits for all
// to finish, returning the first error. The caller keeps w to read its
// counters afterwards.
func RunWorld(w *World, fn func(c *Comm) error) error {
	defer cleanup(w)
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(w.At(r))
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func cleanup(w *World) {
	pendMu.Lock()
	delete(pending, w)
	pendMu.Unlock()
}
