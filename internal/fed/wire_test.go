package fed

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/workload"
)

// wireRow is one request against the one-shard handler and the response
// it must get. source is expected in both X-Source and X-Serve-Source.
type wireRow struct {
	name   string
	method string
	path   string
	ctype  string
	tenant string
	body   []byte

	status int
	source string
	route  string
	retry  string
	sha    string // SHA-256 of a 200's body
}

func binBody(tb testing.TB, ms ...*matrix.Dense) []byte {
	tb.Helper()
	var buf bytes.Buffer
	for _, m := range ms {
		if err := matrix.WriteBinary(&buf, m); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// binHeader is a bare 12-byte binary header declaring rows x cols.
func binHeader(rows, cols uint32) []byte {
	var buf bytes.Buffer
	for _, v := range []uint32{0x4d585236, rows, cols} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	return buf.Bytes()
}

// blockSingular is invertible but its leading nb x nb block is zero, so
// block-local pivoting fails on it.
func blockSingular(n, nb int) *matrix.Dense {
	a := matrix.New(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, (i+nb)%n, 1)
	}
	return a
}

func wireDo(t *testing.T, client *http.Client, url string, row wireRow) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(row.method, url+row.path, bytes.NewReader(row.body))
	if err != nil {
		t.Fatal(err)
	}
	if row.ctype != "" {
		req.Header.Set("Content-Type", row.ctype)
	}
	if row.tenant != "" {
		req.Header.Set("X-Tenant", row.tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func checkWire(t *testing.T, row wireRow, resp *http.Response, body []byte) {
	t.Helper()
	h := resp.Header
	got := wireRow{status: resp.StatusCode, source: h.Get("X-Source"),
		route: h.Get("X-Fed-Route"), retry: h.Get("Retry-After")}
	if got.status != row.status || got.source != row.source || got.route != row.route || got.retry != row.retry {
		t.Errorf("%s: status %d source %q route %q retry %q, want %d %q %q %q (body %.120q)",
			row.name, got.status, got.source, got.route, got.retry,
			row.status, row.source, row.route, row.retry, body)
	}
	if h.Get("X-Serve-Source") != got.source {
		t.Errorf("%s: X-Serve-Source %q differs from X-Source %q", row.name, h.Get("X-Serve-Source"), got.source)
	}
	if row.status != http.StatusOK || runtime.GOARCH != "amd64" {
		return // digests recorded on amd64; other targets may fuse multiply-adds
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != row.sha {
		t.Errorf("%s: body sha256 %x, want %s", row.name, sum, row.sha)
	}
}

// TestWireContract pins the HTTP surface a one-shard fleet serves — the
// single-server deployment — row by row: status, the source, route and
// Retry-After headers, and the SHA-256 of every 200's body. The values
// were recorded against the previous handler pair. Two rows differ on
// purpose, both fixed bugs: a ?nodes= beyond the cluster is now a 400
// (it used to run a pipeline sized by the client), and an oversized
// right-hand-side header is a 413 like the same header on A (it used to
// be a 400).
func TestWireContract(t *testing.T) {
	f := mustFleet(t, Config{
		Shards:  1,
		Tenants: map[string]TenantSpec{DefaultTenant: {}, "q": {Quota: 1}},
		Shard:   shardConfig(),
	})
	ts := httptest.NewServer(NewHandler(f))
	defer ts.Close()
	client := ts.Client()

	inv := binBody(t, workload.DiagonallyDominant(24, 11))
	var text bytes.Buffer
	if err := matrix.WriteText(&text, workload.DiagonallyDominant(12, 12)); err != nil {
		t.Fatal(err)
	}
	tall := workload.RandomRect(64, 4, 13)
	lstsq := binBody(t, tall, workload.RandomRect(64, 1, 14))
	pinv := binBody(t, workload.RandomRect(48, 3, 15))
	const bin, txt = "application/octet-stream", "text/plain"
	post := func(name, path, ctype string, body []byte, status int) wireRow {
		return wireRow{name: name, method: http.MethodPost, path: path, ctype: ctype, body: body, status: status}
	}
	ok := func(name, path, ctype string, body []byte, source, sha string) wireRow {
		r := post(name, path, ctype, body, http.StatusOK)
		r.source, r.route, r.sha = source, "home", sha
		return r
	}
	const (
		invSHA   = "21c311c78e8b05bb6fc4b8887afcdcdbfd50de51d9bba6e377226652bbe314be"
		textSHA  = "67e5e824ca5029b482c2aa2d96c816e728a36c4a546b02c8f8c62dd12c96d93c"
		lstsqSHA = "af5db591f044b731190dfcfabd4233fe02468e6c65b90b4d666f5fb73a5f28f2"
		pinvSHA  = "061b2ada2aa0eb42af5038e27f483be35b511fd0f579939e5af70321104d605d"
	)
	rows := []wireRow{
		ok("invert binary", "/invert", bin, inv, "pipeline", invSHA),
		ok("invert binary repeat", "/invert", bin, inv, "cache", invSHA),
		ok("invert text", "/invert", txt, text.Bytes(), "pipeline", textSHA),
		ok("invert text repeat", "/invert", txt, text.Bytes(), "cache", textSHA),
		ok("lstsq", "/lstsq", bin, lstsq, "pipeline", lstsqSHA),
		ok("lstsq repeat", "/lstsq", bin, lstsq, "cache", lstsqSHA),
		ok("pinv", "/pinv", bin, pinv, "pipeline", pinvSHA),
		ok("pinv repeat", "/pinv", bin, pinv, "cache", pinvSHA),
		post("bad nodes", "/invert?nodes=x", bin, inv, http.StatusBadRequest),
		post("bad nb", "/invert?nb=x", bin, inv, http.StatusBadRequest),
		post("bad priority", "/lstsq?priority=x", bin, lstsq, http.StatusBadRequest),
		post("bad timeout", "/pinv?timeout=x", bin, pinv, http.StatusBadRequest),
		post("nodes beyond the cluster", "/invert?nodes=4096", bin, binBody(t, workload.DiagonallyDominant(4, 16)), http.StatusBadRequest),
		post("expired deadline", "/invert?timeout=-1s", bin, binBody(t, workload.DiagonallyDominant(8, 17)), http.StatusGatewayTimeout),
		post("hostile header", "/invert", bin, binHeader(1<<24, 1<<24), http.StatusRequestEntityTooLarge),
		post("text on lstsq", "/lstsq", txt, []byte("1 2\n3 4\n"), http.StatusUnsupportedMediaType),
		post("text on pinv", "/pinv", txt, []byte("1 2\n3 4\n"), http.StatusUnsupportedMediaType),
		post("garbage body", "/invert", bin, []byte("not a matrix"), http.StatusBadRequest),
		post("missing rhs", "/lstsq", bin, binBody(t, tall), http.StatusBadRequest),
		post("oversized rhs header", "/lstsq", bin, append(binBody(t, tall), binHeader(1<<24, 1)...), http.StatusRequestEntityTooLarge),
		post("rhs row mismatch", "/lstsq", bin, binBody(t, tall, workload.RandomRect(63, 1, 18)), http.StatusUnprocessableEntity),
		post("rectangular invert", "/invert", bin, binBody(t, matrix.New(3, 5)), http.StatusUnprocessableEntity),
		post("empty invert", "/invert", bin, binBody(t, matrix.New(0, 0)), http.StatusBadRequest),
		post("singular block", "/invert", bin, binBody(t, blockSingular(32, 16)), http.StatusUnprocessableEntity),
		post("unknown tenant", "/invert", bin, inv, http.StatusForbidden).withTenant("stranger"),
		{name: "GET invert", method: http.MethodGet, path: "/invert", status: http.StatusMethodNotAllowed},
		{name: "GET lstsq", method: http.MethodGet, path: "/lstsq", status: http.StatusMethodNotAllowed},
	}
	for _, row := range rows {
		resp, body := wireDo(t, client, ts.URL, row)
		checkWire(t, row, resp, body)
	}

	// Quota: a slow inversion holds tenant q's only slot; the next request
	// from q is turned away with Retry-After.
	slow, err := http.NewRequest(http.MethodPost, ts.URL+"/invert",
		bytes.NewReader(binBody(t, workload.DiagonallyDominant(256, 19))))
	if err != nil {
		t.Fatal(err)
	}
	slow.Header.Set("X-Tenant", "q")
	held := make(chan int)
	go func() {
		resp, err := client.Do(slow)
		if err != nil {
			held <- 0
			return
		}
		resp.Body.Close()
		held <- resp.StatusCode
	}()
	for !tenantInflight(f, "q") {
		select {
		case st := <-held:
			t.Fatalf("held request finished (status %d) before the quota was probed", st)
		case <-time.After(100 * time.Microsecond):
		}
	}
	quota := post("tenant quota exhausted", "/invert", bin, inv, http.StatusTooManyRequests).withTenant("q")
	quota.retry = "1"
	resp, body := wireDo(t, client, ts.URL, quota)
	checkWire(t, quota, resp, body)
	if st := <-held; st != http.StatusOK {
		t.Errorf("held request: status %d", st)
	}

	// Draining: the only shard refuses new work.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	drain := post("draining", "/invert", bin, inv, http.StatusServiceUnavailable)
	resp, body = wireDo(t, client, ts.URL, drain)
	checkWire(t, drain, resp, body)
	if !strings.Contains(string(body), "no live shard") {
		t.Errorf("draining body %q", body)
	}
}

func (r wireRow) withTenant(name string) wireRow {
	r.tenant = name
	return r
}

func tenantInflight(f *Fleet, name string) bool {
	for _, ts := range f.Snapshot().Tenants {
		if ts.Name == name && ts.Inflight > 0 {
			return true
		}
	}
	return false
}
