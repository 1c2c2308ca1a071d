package fed

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/matrix"
	"repro/internal/serve"
	"repro/internal/tsqr"
)

// maxBodyBytes bounds a request body: 64 MiB holds an order-2896 double
// matrix, far beyond simulation scale.
const maxBodyBytes = 64 << 20

// NewHandler exposes the fleet over HTTP. A one-shard fleet is the
// single-server deployment; there is no other HTTP surface.
//
//	POST /invert    body = square matrix (binary by default, text with
//	                Content-Type: text/plain); query params timeout
//	                (Go duration), nodes (at most the shard's cluster
//	                size), nb, priority; optional X-Base-Digest header
//	                naming a previously served base matrix this request
//	                mutates. Responds with the inverse in the same format.
//	POST /lstsq     body = tall matrix A immediately followed by the
//	                right-hand side b, both in the binary format (the
//	                fixed-size header makes the boundary self-describing;
//	                text bodies are rejected with 415). Responds with the
//	                least-squares solution x = R^-1 Q^T b in binary.
//	POST /pinv      body = tall matrix A in the binary format. Responds
//	                with the pseudo-inverse A^+ = R^-1 Q^T in binary.
//	GET  /healthz   liveness: 503 only when no shard is healthy
//	GET  /statz     JSON fleet stats (per-shard serving snapshots, ring
//	                ownership, tenant table)
//	GET  /metricz   fleet fed.* counters followed by each shard's registry
//
// Every POST takes the tenant from the X-Tenant header (or the tenant
// query param) and is routed through the digest ring, so repeats hit
// their home shard's cache. A success carries X-Source and X-Serve-Source
// (pipeline, dedup, cache or incremental), X-Jobs/X-Elapsed/X-Slot-Wait
// when work ran, and X-Shard/X-Fed-Home/X-Fed-Route. Body too large is
// 413, a text body on a solve endpoint 415; every other error takes its
// status from statusOf.
func NewHandler(f *Fleet) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/invert", f.handle(serve.KindInvert))
	mux.HandleFunc("/lstsq", f.handle(serve.KindLstsq))
	mux.HandleFunc("/pinv", f.handle(serve.KindPinv))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		for i := range f.shards {
			if f.shards[i].Healthy() {
				fmt.Fprintln(w, "ok")
				return
			}
		}
		http.Error(w, "no live shard", http.StatusServiceUnavailable)
	})
	mux.HandleFunc("/statz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(f.Snapshot())
	})
	mux.HandleFunc("/metricz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		f.met.Render(w)
		for i, s := range f.shards {
			fmt.Fprintf(w, "\n# shard %d\n", i)
			s.Metrics().Render(w)
		}
	})
	return mux
}

// handle serves one POST endpoint: decode, route through the fleet,
// encode.
func (f *Fleet) handle(kind serve.Kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		req, ctx, cancel, text, ok := decodeRequest(w, r, kind)
		if !ok {
			return
		}
		defer cancel()
		res, err := f.Do(ctx, req)
		if err != nil {
			status := statusOf(err)
			if status == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			http.Error(w, err.Error(), status)
			return
		}
		writeResult(w, text, res)
	}
}

// decodeRequest parses one POST into a fleet Request: the query
// parameters (nodes, nb, priority, timeout), the tenant, the X-Base-Digest
// hint on /invert only (on a solve it would move the request's ring
// placement), and the body. /invert accepts text bodies as well as
// binary; the solve endpoints take binary only. The binary decoder
// consumes exactly one encoded matrix, so /lstsq's A and b decode one
// after the other from the same reader, b within what is left of the
// body limit. On failure decodeRequest writes the error response (400,
// 413 or 415) and reports ok = false. Otherwise the returned context
// carries the request deadline, cancel must be called when the request
// finishes, and text reports the body format so the response can mirror
// it.
func decodeRequest(w http.ResponseWriter, r *http.Request, kind serve.Kind) (req Request, ctx context.Context, cancel context.CancelFunc, text, ok bool) {
	fail := func(status int, msg string) (Request, context.Context, context.CancelFunc, bool, bool) {
		http.Error(w, msg, status)
		return Request{}, nil, nil, false, false
	}
	q := r.URL.Query()
	for _, p := range []struct {
		name string
		dst  *int
	}{{"nodes", &req.Nodes}, {"nb", &req.NB}, {"priority", &req.Priority}} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fail(http.StatusBadRequest, "bad "+p.name+": "+err.Error())
			}
			*p.dst = n
		}
	}
	var deadline time.Time
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return fail(http.StatusBadRequest, "bad timeout: "+err.Error())
		}
		deadline = time.Now().Add(d)
	}
	req.Kind = kind
	if req.Tenant = r.Header.Get("X-Tenant"); req.Tenant == "" {
		req.Tenant = q.Get("tenant")
	}

	text = strings.HasPrefix(r.Header.Get("Content-Type"), "text/plain")
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var err error
	switch {
	case kind == serve.KindInvert:
		// A stale hint is harmless: the incremental probe falls back to a
		// fingerprint scan.
		req.BaseDigest = r.Header.Get("X-Base-Digest")
		if text {
			req.A, err = matrix.ReadText(body)
		} else {
			// The limit must reach inside the decoder: MaxBytesReader only
			// bounds bytes read, and the header-declared dimensions would
			// be allocated before any payload byte is consumed.
			req.A, err = matrix.ReadBinaryLimit(body, maxBodyBytes)
		}
	case text:
		return fail(http.StatusUnsupportedMediaType, "solve endpoints accept the binary matrix format only")
	default:
		req.A, err = matrix.ReadBinaryLimit(body, maxBodyBytes)
	}
	if err != nil {
		return fail(bodyStatus(err), "unreadable matrix: "+err.Error())
	}
	if kind == serve.KindLstsq {
		req.B, err = matrix.ReadBinaryLimit(body, maxBodyBytes-matrix.BinarySize(req.A.Dims()))
		if errors.Is(err, io.EOF) {
			return fail(http.StatusBadRequest, "missing right-hand side after matrix A")
		}
		if err != nil {
			return fail(bodyStatus(err), "unreadable right-hand side: "+err.Error())
		}
	}

	ctx, cancel = r.Context(), func() {}
	if !deadline.IsZero() {
		ctx, cancel = context.WithDeadline(ctx, deadline)
	}
	return req, ctx, cancel, text, true
}

// bodyStatus is 413 for a body, or a header-declared matrix, over the
// limit, and 400 for anything else unreadable.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) || errors.Is(err, matrix.ErrTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// statuses maps every typed serving error to its HTTP status; the first
// match wins. Malformed inputs are 400s. Inputs that parse but cannot be
// used for the requested computation — a rectangular /invert body, a
// wide or rank-deficient solve input, a right-hand-side shape mismatch, a
// singular block, a failed residual guardrail — are 422s, with the
// observed shape in the message.
var statuses = []struct {
	err    error
	status int
}{
	{ErrTenantQuota, http.StatusTooManyRequests},
	{ErrUnknownTenant, http.StatusForbidden},
	{ErrNoShard, http.StatusServiceUnavailable},
	{core.ErrNilMatrix, http.StatusBadRequest},
	{core.ErrEmptyMatrix, http.StatusBadRequest},
	{core.ErrBadOptions, http.StatusBadRequest},
	{serve.ErrOverloaded, http.StatusTooManyRequests},
	{serve.ErrDraining, http.StatusServiceUnavailable},
	{context.DeadlineExceeded, http.StatusGatewayTimeout},
	{context.Canceled, http.StatusGatewayTimeout},
	{mapreduce.ErrJobCanceled, http.StatusGatewayTimeout},
	{core.ErrNotSquare, http.StatusUnprocessableEntity},
	{core.ErrSingularBlock, http.StatusUnprocessableEntity},
	{tsqr.ErrNotTall, http.StatusUnprocessableEntity},
	{tsqr.ErrShapeMismatch, http.StatusUnprocessableEntity},
	{tsqr.ErrRankDeficient, http.StatusUnprocessableEntity},
	{tsqr.ErrResidual, http.StatusUnprocessableEntity},
}

// statusOf returns err's HTTP status: its row in statuses, else 500.
func statusOf(err error) int {
	for _, s := range statuses {
		if errors.Is(err, s.err) {
			return s.status
		}
	}
	return http.StatusInternalServerError
}

// writeResult writes a completed request in the request's format with the
// source, report and routing headers.
func writeResult(w http.ResponseWriter, text bool, res *Result) {
	h := w.Header()
	h.Set("X-Shard", strconv.Itoa(res.Shard))
	h.Set("X-Fed-Home", strconv.Itoa(res.Home))
	h.Set("X-Fed-Route", res.Route)
	// Both names stay: loadgen reads X-Source, the benchmark X-Serve-Source.
	h.Set("X-Source", res.Source)
	h.Set("X-Serve-Source", res.Source)
	if res.Rep != nil {
		h.Set("X-Jobs", strconv.Itoa(res.Rep.JobsRun))
		h.Set("X-Elapsed", res.Rep.Elapsed.String())
		h.Set("X-Slot-Wait", res.Rep.SlotWait.String())
	}
	var err error
	if text {
		h.Set("Content-Type", "text/plain; charset=utf-8")
		err = matrix.WriteText(w, res.Out)
	} else {
		h.Set("Content-Type", "application/octet-stream")
		err = matrix.WriteBinary(w, res.Out)
	}
	_ = err // headers are out; nothing sensible left to report
}
