package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/serve"
	"repro/internal/workload"
)

// request is one generated service request: the bytes and headers a
// client sends, plus the decoded inputs the checker and the in-process
// replay paths (Fleet.Do, Server.Do) use. A request is immutable once
// built, so duplicates share one.
type request struct {
	spec       workload.RequestSpec
	path       string // "/invert" or "/lstsq"
	baseDigest string // X-Base-Digest hint on delta requests
	body       []byte
	a, b       *matrix.Dense // b is the right-hand side of a /lstsq request
}

// headers lists what the client sets on the request, in sending order.
func (r *request) headers() [][2]string {
	h := [][2]string{{"Content-Type", "application/octet-stream"}}
	if r.baseDigest != "" {
		h = append(h, [2]string{"X-Base-Digest", r.baseDigest})
	}
	return h
}

// serveOpts are the pipeline options the benchmark's fleets serve with —
// cmd/matserve's defaults. Delta hints are digested against them so they
// name the key the shard cached the base under.
func serveOpts() core.Options {
	opts := core.DefaultOptions(clusterNodes)
	opts.NB = serveNB
	return opts
}

// recentBodies is how many non-hot requests stay built: the mix repeats
// only from its last 8 fresh specs, so a window a few times that always
// holds a duplicate's original.
const recentBodies = 32

type specKey [5]int64

func keyOf(sp workload.RequestSpec) specKey {
	return specKey{int64(sp.Order), int64(sp.Cols), sp.Seed, int64(sp.DeltaRank), sp.DeltaSeed}
}

// reqStream hands out a workload's request sequence. The sequence is a
// function of the seed alone; clients draw from it in arrival order, as
// they would from a shared queue. Building happens outside the lock and
// before the caller starts its clock.
type reqStream struct {
	path string
	opts core.Options

	mu     sync.Mutex
	st     *workload.MixStream
	built  map[specKey]*request
	recent []specKey // FIFO of non-hot keys in built
}

func newReqStream(w workloadSpec, seed int64) *reqStream {
	path := "/invert"
	if w.kind == kindLstsq {
		path = "/lstsq"
	}
	return &reqStream{path: path, opts: serveOpts(), st: w.mix.Stream(seed),
		built: make(map[specKey]*request)}
}

// next returns the stream's next request.
func (rs *reqStream) next() *request {
	rs.mu.Lock()
	sp := rs.st.Next()
	k := keyOf(sp)
	r, ok := rs.built[k]
	rs.mu.Unlock()
	if ok {
		return r
	}
	r = rs.build(sp)
	rs.mu.Lock()
	if _, dup := rs.built[k]; !dup {
		rs.built[k] = r
		if !sp.Hot {
			rs.recent = append(rs.recent, k)
			if len(rs.recent) > recentBodies {
				delete(rs.built, rs.recent[0])
				rs.recent = rs.recent[1:]
			}
		}
	}
	rs.mu.Unlock()
	return r
}

func (rs *reqStream) build(sp workload.RequestSpec) *request {
	r := &request{spec: sp, path: rs.path, a: sp.Build()}
	var buf bytes.Buffer
	buf.Grow(int(matrix.BinarySize(r.a.Rows, r.a.Cols)) + int(matrix.BinarySize(r.a.Rows, 1)))
	mustWrite(&buf, r.a)
	if sp.Tall() {
		r.b = sp.Rhs()
		mustWrite(&buf, r.b)
	}
	if sp.Delta() {
		r.baseDigest = serve.KeyFor(serve.Request{A: sp.Base().Build()}, rs.opts)
	}
	r.body = buf.Bytes()
	return r
}

// mustWrite encodes m; writes to a bytes.Buffer cannot fail.
func mustWrite(buf *bytes.Buffer, m *matrix.Dense) {
	if err := matrix.WriteBinary(buf, m); err != nil {
		panic(err)
	}
}

// streamDigest is the SHA-256 over the first n requests of a workload's
// stream — path, headers and body of each — the fingerprint the
// determinism test compares.
func streamDigest(w workloadSpec, seed int64, n int) string {
	rs := newReqStream(w, seed)
	h := sha256.New()
	for i := 0; i < n; i++ {
		r := rs.next()
		h.Write([]byte(r.path + "\n"))
		for _, kv := range r.headers() {
			h.Write([]byte(kv[0] + ": " + kv[1] + "\n"))
		}
		h.Write(r.body)
	}
	return hex.EncodeToString(h.Sum(nil))
}
