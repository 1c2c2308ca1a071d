package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/incr"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/serve"
)

// service is what cmd/matserve mounts: fed.NewHandler over a one-shard
// fleet with matserve's defaults, listening on real loopback TCP.
type service struct {
	fleet *fed.Fleet
	url   string
	hs    *http.Server
	done  chan struct{} // closed once hs.Serve has returned
}

// startService builds the fleet and starts serving it. tr is the only
// hook the fleet takes (each shard always keeps its own registry); nil
// leaves tracing off.
func startService(w workloadSpec, tr *obs.Tracer) (*service, error) {
	fleet, err := fed.New(fed.Config{Shards: 1, Shard: serve.Config{
		Concurrency: serveConcurrency,
		QueueDepth:  serveQueue,
		CacheBytes:  serveCacheBytes,
		Opts:        serveOpts(),
		Incr:        incr.Config{Enabled: w.incr},
		Tracer:      tr,
	}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fleet.Close()
		return nil, err
	}
	s := &service{fleet: fleet, url: "http://" + ln.Addr().String(),
		hs: &http.Server{Handler: fed.NewHandler(fleet)}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the listener, waits for the serve loop, and drains the
// fleet.
func (s *service) close() {
	_ = s.hs.Close()
	<-s.done
	_ = s.fleet.Close()
}

// via is the way a request reaches the fleet. The HTTP handlers, the
// federation router and the serving layer record no spans of their own,
// so the traced run separates them by sending the same request stream
// three ways and differencing the times.
type via int

const (
	viaHTTP  via = iota // through fed.NewHandler over TCP: what a client sees
	viaFleet            // Fleet.Do: no HTTP framing, decode or encode
	viaShard            // Fleet.Shard(0).Do: no federation router either
)

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	hc  *http.Client
	buf bytes.Buffer // response body, reused between requests
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// output is what came back: response bytes over HTTP, the result matrix
// in process.
type output struct {
	body []byte
	m    *matrix.Dense
	rep  *core.Report // in process only; nil on a cache hit
}

// exchange sends one request and times it from send to last body byte.
// root, when tracing, receives a child span around the call.
func (s *service) exchange(c *client, r *request, how via, root *obs.Span) (opResult, output) {
	res := opResult{reqBytes: len(r.body)}
	if how != viaHTTP {
		sreq := serve.Request{A: r.a, B: r.b, BaseDigest: r.baseDigest}
		if r.b != nil {
			sreq.Kind = serve.KindLstsq
		}
		var out *serve.Result
		var err error
		t0 := time.Now()
		if how == viaFleet {
			var fr *fed.Result
			if fr, err = s.fleet.Do(context.Background(), fed.Request{Request: sreq}); err == nil {
				out = fr.Result
			}
		} else {
			out, err = s.fleet.Shard(0).Do(context.Background(), sreq)
		}
		res.ms = msOf(time.Since(t0))
		if err != nil {
			res.failed = err.Error()
			return res, output{}
		}
		res.source = out.Source
		return res, output{m: out.Out, rep: out.Rep}
	}

	hreq, err := http.NewRequest(http.MethodPost, s.url+r.path, bytes.NewReader(r.body))
	if err != nil {
		res.failed = err.Error()
		return res, output{}
	}
	for _, kv := range r.headers() {
		hreq.Header.Set(kv[0], kv[1])
	}
	span := root.Child("bench.http_roundtrip", obs.KindOp)
	t0 := time.Now()
	resp, err := c.hc.Do(hreq)
	if err == nil {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	res.ms = msOf(time.Since(t0))
	span.Finish()
	if err != nil {
		res.failed = err.Error()
		return res, output{}
	}
	res.respBytes = c.buf.Len()
	res.source = resp.Header.Get("X-Serve-Source")
	res.failed = checkStatus(resp.StatusCode)
	return res, output{body: c.buf.Bytes()}
}

// verify checks one output against its request, under decode and verify
// spans when tracing.
func verify(r *request, out output, root *obs.Span) string {
	m := out.m
	if m == nil {
		dec := root.Child("bench.decode", obs.KindOp)
		var why string
		m, why = decodeServed(out.body)
		dec.Finish()
		if why != "" {
			return why
		}
	}
	span := root.Child("bench.verify", obs.KindOp)
	defer span.Finish()
	return checkOutput(r, m)
}

// sampleEvery is the share of untraced responses whose output is checked:
// a seeded 1-in-16 sample, kept until the timed phase is over.
const sampleEvery = 16

// sampled decides from the seed and the operation's ordinal alone.
func sampled(seed, ordinal int64) bool {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(ordinal)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x%sampleEvery == 0
}

// kept is a sampled response waiting for its check.
type kept struct {
	op   int // index into the client's results
	req  *request
	body []byte
}

// run is the timed closed loop: clients callers, each sending its next
// request only after the previous one completed, all over HTTP with
// tracing off. Statuses are checked at once; a seeded sample of outputs is
// checked after the loop so no check shares the cores with a timed
// request.
func (s *service) run(rs *reqStream, lim *limit, clients int, seed int64) *phase {
	perClient := make([][]opResult, clients)
	held := make([][]kept, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient()
			defer cl.close()
			for {
				i, ok := lim.take()
				if !ok {
					return
				}
				r := rs.next()
				res, out := s.exchange(cl, r, viaHTTP, nil)
				if res.failed == "" && sampled(seed, i) {
					held[c] = append(held[c], kept{op: len(perClient[c]), req: r,
						body: append([]byte(nil), out.body...)})
				}
				perClient[c] = append(perClient[c], res)
			}
		}(c)
	}
	wg.Wait()
	ph := &phase{wall: time.Since(start)}
	for c := range perClient {
		for _, k := range held[c] {
			perClient[c][k.op].failed = verify(k.req, output{body: k.body}, nil)
		}
		ph.ops = append(ph.ops, perClient[c]...)
	}
	return ph
}

// warm sends the stream's first warmOps requests, untimed, checking each.
func (s *service) warm(rs *reqStream, n int) error {
	cl := newClient()
	defer cl.close()
	for i := 0; i < n; i++ {
		r := rs.next()
		res, out := s.exchange(cl, r, viaHTTP, nil)
		if res.failed == "" {
			res.failed = verify(r, out, nil)
		}
		if res.failed != "" {
			return fmt.Errorf("warm-up request %d: %s", i, res.failed)
		}
	}
	return nil
}
