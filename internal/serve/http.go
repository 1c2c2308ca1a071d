package serve

import (
	"bytes"
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
	"repro/internal/tsqr"
)

// DefaultMaxBodyBytes bounds the request body (a binary matrix): 64 MiB
// holds an order-2896 double matrix, far beyond simulation scale.
const DefaultMaxBodyBytes = 64 << 20

// NewHandler exposes the server over HTTP:
//
//	POST /invert    body = square matrix (binary by default, text with
//	                Content-Type: text/plain); query params timeout
//	                (Go duration), nodes, nb, priority; optional
//	                X-Base-Digest header naming a previously served base
//	                matrix this request mutates. Responds with the
//	                inverse in the same format, plus X-Source/
//	                X-Serve-Source/X-Jobs/X-Slot-Wait headers.
//	POST /lstsq     body = tall matrix A immediately followed by the
//	                right-hand side b, both in the binary format (the
//	                fixed-size header makes the boundary self-describing;
//	                text bodies are rejected with 415). Responds with the
//	                least-squares solution x = R^-1 Q^T b in binary.
//	POST /pinv      body = tall matrix A in the binary format. Responds
//	                with the pseudo-inverse A^+ = R^-1 Q^T in binary.
//	GET  /healthz   liveness (503 while draining)
//	GET  /statz     JSON serving stats
//	GET  /metricz   plain-text metrics registry
//
// Error mapping: malformed input 400, queue overflow 429, draining 503,
// deadline/cancellation 504, body too large 413, and 422 for inputs
// that parse but are semantically unusable — a rectangular /invert body
// (with the observed shape in the message), a wide or rank-deficient
// solve input, a right-hand-side shape mismatch, a singular inversion.
func NewHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/invert", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		s.handleInvert(w, r)
	})
	mux.HandleFunc("/lstsq", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		s.handleSolve(w, r, KindLstsq)
	})
	mux.HandleFunc("/pinv", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		s.handleSolve(w, r, KindPinv)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Snapshot().Draining {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/statz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Snapshot())
	})
	mux.HandleFunc("/metricz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.met.Render(w)
	})
	return mux
}

// DecodeInvertRequest parses a POST /invert into a Request: query
// parameters (timeout, nodes, nb, priority) and the matrix body (binary
// by default, text with Content-Type: text/plain). On failure it writes
// the error response itself and reports ok = false. The returned context
// carries the request deadline; cancel must be called when the request
// finishes. text reports the body format, so the response can mirror it.
// Both the single-server handler and the federation tier's shard router
// decode requests through here.
func DecodeInvertRequest(w http.ResponseWriter, r *http.Request) (req Request, ctx context.Context, cancel context.CancelFunc, text, ok bool) {
	req, ctx, cancel, ok = decodeParams(w, r)
	if !ok {
		return Request{}, nil, nil, false, false
	}

	// An optional X-Base-Digest names a previously served base matrix
	// this request is a low-rank mutation of: it steers the incremental
	// path's probe and the federation tier's routing. A stale hint is
	// harmless (the probe falls back to a fingerprint scan).
	req.BaseDigest = r.Header.Get("X-Base-Digest")

	text = strings.HasPrefix(r.Header.Get("Content-Type"), "text/plain")
	body := http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes)
	var a *matrix.Dense
	var err error
	if text {
		a, err = matrix.ReadText(body)
	} else {
		// The limit must reach inside the decoder: MaxBytesReader only
		// bounds bytes read, and the header-declared dimensions would be
		// allocated before any payload byte is consumed.
		a, err = matrix.ReadBinaryLimit(body, DefaultMaxBodyBytes)
	}
	if err != nil {
		cancel()
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) || errors.Is(err, matrix.ErrTooLarge) {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			return Request{}, nil, nil, false, false
		}
		http.Error(w, "unreadable matrix: "+err.Error(), http.StatusBadRequest)
		return Request{}, nil, nil, false, false
	}
	req.A = a
	return req, ctx, cancel, text, true
}

// decodeParams parses the query parameters shared by every POST
// endpoint (timeout, nodes, nb, priority) and derives the request
// context. On failure it writes the error response and reports !ok.
func decodeParams(w http.ResponseWriter, r *http.Request) (req Request, ctx context.Context, cancel context.CancelFunc, ok bool) {
	q := r.URL.Query()
	var err error
	if v := q.Get("nodes"); v != "" {
		if req.Nodes, err = strconv.Atoi(v); err != nil {
			http.Error(w, "bad nodes: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	if v := q.Get("nb"); v != "" {
		if req.NB, err = strconv.Atoi(v); err != nil {
			http.Error(w, "bad nb: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	if v := q.Get("priority"); v != "" {
		if req.Priority, err = strconv.Atoi(v); err != nil {
			http.Error(w, "bad priority: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	ctx, cancel = r.Context(), func() {}
	if v := q.Get("timeout"); v != "" {
		d, derr := time.ParseDuration(v)
		if derr != nil {
			http.Error(w, "bad timeout: "+derr.Error(), http.StatusBadRequest)
			return Request{}, nil, nil, false
		}
		ctx, cancel = context.WithTimeout(ctx, d)
	}
	return req, ctx, cancel, true
}

// DecodeSolveRequest parses a POST /lstsq or /pinv into a Request. The
// body is binary-only: matrix A and, for lstsq, the right-hand side b
// immediately after it — the binary header is fixed-size, so the
// boundary is computed from A's declared shape rather than trusted from
// the client. Query parameters match /invert. On failure it writes the
// error response itself and reports ok = false.
func DecodeSolveRequest(w http.ResponseWriter, r *http.Request, kind Kind) (req Request, ctx context.Context, cancel context.CancelFunc, ok bool) {
	req, ctx, cancel, ok = decodeParams(w, r)
	if !ok {
		return Request{}, nil, nil, false
	}
	req.Kind = kind
	fail := func(status int, msg string) (Request, context.Context, context.CancelFunc, bool) {
		cancel()
		http.Error(w, msg, status)
		return Request{}, nil, nil, false
	}
	if strings.HasPrefix(r.Header.Get("Content-Type"), "text/plain") {
		return fail(http.StatusUnsupportedMediaType, "solve endpoints accept the binary matrix format only")
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return fail(http.StatusRequestEntityTooLarge, err.Error())
		}
		return fail(http.StatusBadRequest, "unreadable body: "+err.Error())
	}
	// The decoder consumes exactly one encoded matrix, so A and the
	// right-hand side decode one after the other from the same reader.
	rest := bytes.NewReader(body)
	a, err := matrix.ReadBinaryLimit(rest, DefaultMaxBodyBytes)
	if err != nil {
		if errors.Is(err, matrix.ErrTooLarge) {
			return fail(http.StatusRequestEntityTooLarge, err.Error())
		}
		return fail(http.StatusBadRequest, "unreadable matrix: "+err.Error())
	}
	req.A = a
	if kind == KindLstsq {
		if rest.Len() == 0 {
			return fail(http.StatusBadRequest, "missing right-hand side after matrix A")
		}
		b, err := matrix.ReadBinaryLimit(rest, DefaultMaxBodyBytes)
		if err != nil {
			return fail(http.StatusBadRequest, "unreadable right-hand side: "+err.Error())
		}
		req.B = b
	}
	return req, ctx, cancel, true
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request, kind Kind) {
	req, ctx, cancel, ok := DecodeSolveRequest(w, r, kind)
	if !ok {
		return
	}
	defer cancel()
	res, err := s.Do(ctx, req)
	if err != nil {
		WriteError(w, err)
		return
	}
	EncodeInvertResponse(w, false, res)
}

// EncodeInvertResponse writes a completed inversion in the request's
// format with the X-Source / X-Jobs / X-Elapsed / X-Slot-Wait headers.
func EncodeInvertResponse(w http.ResponseWriter, text bool, res *Result) {
	w.Header().Set("X-Source", res.Source)
	// X-Serve-Source duplicates X-Source under the name the incremental
	// path's clients and smoke tests assert on ("pipeline", "cache",
	// "dedup", "incremental"); both are kept for compatibility.
	w.Header().Set("X-Serve-Source", res.Source)
	if res.Rep != nil {
		w.Header().Set("X-Jobs", strconv.Itoa(res.Rep.JobsRun))
		w.Header().Set("X-Elapsed", res.Rep.Elapsed.String())
		w.Header().Set("X-Slot-Wait", res.Rep.SlotWait.String())
	}
	var err error
	if text {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		err = matrix.WriteText(w, res.Out)
	} else {
		w.Header().Set("Content-Type", "application/octet-stream")
		err = matrix.WriteBinary(w, res.Out)
	}
	_ = err // headers are out; nothing sensible left to report
}

func (s *Server) handleInvert(w http.ResponseWriter, r *http.Request) {
	req, ctx, cancel, text, ok := DecodeInvertRequest(w, r)
	if !ok {
		return
	}
	defer cancel()
	res, err := s.Do(ctx, req)
	if err != nil {
		WriteError(w, err)
		return
	}
	EncodeInvertResponse(w, text, res)
}

// WriteError maps a serving error to its HTTP status. Malformed inputs
// (nil, empty, bad options) are 400s — client mistakes. Inputs that
// parse but are semantically unusable for the requested computation — a
// rectangular /invert body, a wide or rank-deficient solve input, a
// right-hand-side shape mismatch, a singular matrix, a failed residual
// guardrail — are 422s, with the observed shape carried in the message
// by the validators.
func WriteError(w http.ResponseWriter, err error) {
	var status int
	switch {
	case errors.Is(err, core.ErrNilMatrix),
		errors.Is(err, core.ErrEmptyMatrix),
		errors.Is(err, core.ErrBadOptions):
		status = http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled),
		errors.Is(err, mapreduce.ErrJobCanceled):
		status = http.StatusGatewayTimeout
	case errors.Is(err, core.ErrNotSquare),
		errors.Is(err, core.ErrSingularBlock),
		errors.Is(err, tsqr.ErrNotTall),
		errors.Is(err, tsqr.ErrShapeMismatch),
		errors.Is(err, tsqr.ErrRankDeficient),
		errors.Is(err, tsqr.ErrResidual):
		status = http.StatusUnprocessableEntity
	default:
		status = http.StatusInternalServerError
	}
	http.Error(w, err.Error(), status)
}
