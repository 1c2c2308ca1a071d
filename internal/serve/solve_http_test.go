package serve_test

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tsqr"
	"repro/internal/workload"
)

// solveBody encodes the /lstsq wire format: matrix A immediately
// followed by the right-hand side b (omitted for /pinv).
func solveBody(t *testing.T, a, b *matrix.Dense) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := matrix.WriteBinary(&buf, a); err != nil {
		t.Fatal(err)
	}
	if b != nil {
		if err := matrix.WriteBinary(&buf, b); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func postSolve(t *testing.T, client *http.Client, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// TestLstsqEndpoint is the single-server acceptance path: a tall solve
// over HTTP matches the sequential reference to 1e-8, the repeat of the
// same body is a cache hit, and the TSQR pipeline's spans reach the
// Chrome-trace export.
func TestLstsqEndpoint(t *testing.T) {
	tracer := obs.New()
	opts := core.DefaultOptions(8)
	opts.NB = 64
	_, hs := startServer(t, serve.Config{Opts: opts, CacheBytes: 8 << 20, Tracer: tracer})
	client := hs.Client()

	// 256x8 is far past the cost model's crossover on 8 nodes, so this
	// request exercises the distributed TSQR path, not the sequential
	// fallback.
	a := workload.RandomRect(256, 8, 901)
	b := workload.RandomRect(256, 1, 902)
	body := solveBody(t, a, b)

	resp, payload := postSolve(t, client, hs.URL+"/lstsq", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lstsq: status %d body %q", resp.StatusCode, payload)
	}
	if got := resp.Header.Get("X-Source"); got != "pipeline" {
		t.Fatalf("first solve source %q, want pipeline", got)
	}
	x, err := matrix.ReadBinary(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows != 8 || x.Cols != 1 {
		t.Fatalf("solution is %dx%d, want 8x1", x.Rows, x.Cols)
	}
	ref, err := tsqr.SequentialLstsq(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(x, ref); d > 1e-8 {
		t.Fatalf("|x - x_seq| = %g, want <= 1e-8", d)
	}

	// Same body, same digest: served from cache.
	resp2, payload2 := postSolve(t, client, hs.URL+"/lstsq", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat: status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Source"); got != "cache" {
		t.Fatalf("repeat solve source %q, want cache", got)
	}
	if !bytes.Equal(payload, payload2) {
		t.Fatal("cached solution differs from computed one")
	}

	// Same A with a different rhs is a different digest — not a cache hit.
	other := solveBody(t, a, workload.RandomRect(256, 1, 903))
	resp3, _ := postSolve(t, client, hs.URL+"/lstsq", other)
	if got := resp3.Header.Get("X-Source"); got != "pipeline" {
		t.Fatalf("different-rhs source %q, want pipeline", got)
	}

	// The distributed path must have traced: tsqr.* spans in the export.
	var trace bytes.Buffer
	if err := obs.WriteChromeTrace(&trace, tracer.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), "tsqr.lstsq") {
		t.Fatal("Chrome-trace export lacks tsqr.lstsq spans")
	}
}

// TestPinvEndpoint: pseudo-inverse over HTTP, against the sequential
// reference, with the repeat served from cache. Two κ=1e8 graded inputs,
// one on each side of the ChooseQR crossover, must both keep
// |A^+ A - I| within 4·n·κ·ε: served accuracy does not depend on which
// kernel the shape selects.
func TestPinvEndpoint(t *testing.T) {
	opts := core.DefaultOptions(8)
	opts.NB = 64
	srv, hs := startServer(t, serve.Config{Opts: opts, CacheBytes: 8 << 20})
	client := hs.Client()

	a := workload.RandomRect(200, 6, 911)
	body := solveBody(t, a, nil)
	resp, payload := postSolve(t, client, hs.URL+"/pinv", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pinv: status %d body %q", resp.StatusCode, payload)
	}
	pinv, err := matrix.ReadBinary(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if pinv.Rows != 6 || pinv.Cols != 200 {
		t.Fatalf("A+ is %dx%d, want 6x200", pinv.Rows, pinv.Cols)
	}
	ref, err := tsqr.SequentialPInv(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(pinv, ref); d > 1e-8 {
		t.Fatalf("|A+ - A+_seq| = %g", d)
	}
	resp2, _ := postSolve(t, client, hs.URL+"/pinv", body)
	if got := resp2.Header.Get("X-Source"); got != "cache" {
		t.Fatalf("repeat pinv source %q, want cache", got)
	}

	const kappa = 1e8
	for _, tc := range []struct {
		m, n int
		path string
	}{
		{200, 6, "serve.qr_tsqr"},
		{64, 4, "serve.qr_sequential"},
	} {
		a := workload.Graded(tc.m, tc.n, kappa, 7)
		before := srv.Metrics().Counter(tc.path).Value()
		resp, payload := postSolve(t, client, hs.URL+"/pinv", solveBody(t, a, nil))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("graded %dx%d: status %d body %q", tc.m, tc.n, resp.StatusCode, payload)
		}
		if got := srv.Metrics().Counter(tc.path).Value(); got != before+1 {
			t.Fatalf("graded %dx%d: %s went %d -> %d, want one more", tc.m, tc.n, tc.path, before, got)
		}
		pinv, err := matrix.ReadBinary(bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		pa, err := matrix.Mul(pinv, a)
		if err != nil {
			t.Fatal(err)
		}
		bound := 4 * float64(tc.n) * kappa * 0x1p-52
		if d := matrix.MaxAbsDiff(pa, matrix.Identity(tc.n)); d > bound {
			t.Fatalf("graded %dx%d via %s: |A+ A - I| = %.3g > %.3g", tc.m, tc.n, tc.path, d, bound)
		}
	}
}

// TestSolveEndpointErrors pins the solve endpoints' error mapping: wide
// input 422, mismatched rhs 422, missing rhs 400, text body 415,
// near-square /lstsq still accepted (sequential path).
func TestSolveEndpointErrors(t *testing.T) {
	opts := core.DefaultOptions(4)
	opts.NB = 16
	_, hs := startServer(t, serve.Config{Opts: opts})
	client := hs.Client()

	// Wide A -> 422 with the observed shape.
	wide := solveBody(t, workload.RandomRect(4, 12, 1), workload.RandomRect(4, 1, 2))
	resp, body := postSolve(t, client, hs.URL+"/lstsq", wide)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("wide: status %d body %q", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "4x12") {
		t.Fatalf("wide error body %q lacks shape", body)
	}

	// Right-hand side with the wrong row count -> 422.
	mism := solveBody(t, workload.RandomRect(32, 4, 3), workload.RandomRect(31, 1, 4))
	resp, body = postSolve(t, client, hs.URL+"/lstsq", mism)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("mismatch: status %d body %q", resp.StatusCode, body)
	}

	// Missing rhs entirely -> 400 (malformed body, not semantics).
	noRhs := solveBody(t, workload.RandomRect(32, 4, 5), nil)
	resp, body = postSolve(t, client, hs.URL+"/lstsq", noRhs)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing rhs: status %d body %q", resp.StatusCode, body)
	}

	// Text bodies are not accepted on solve endpoints -> 415.
	tresp, err := client.Post(hs.URL+"/lstsq", "text/plain", strings.NewReader("1 2\n3 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("text body: status %d", tresp.StatusCode)
	}

	// Rank-deficient input -> 422 (typed ErrRankDeficient).
	rd := workload.RandomRect(40, 4, 6)
	for i := 0; i < rd.Rows; i++ {
		rd.Set(i, 3, rd.At(i, 1))
	}
	resp, body = postSolve(t, client, hs.URL+"/pinv", solveBody(t, rd, nil))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("rank deficient: status %d body %q", resp.StatusCode, body)
	}

	// GET is not allowed.
	gresp, err := client.Get(hs.URL + "/lstsq")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d", gresp.StatusCode)
	}
}
