package serve_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/matrix"
	"repro/internal/serve"
	"repro/internal/workload"
)

// startServer runs cfg the way cmd/matserve does: one shard behind the
// fleet's handler. It returns that shard for assertions on its counters.
func startServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	fleet, err := fed.New(fed.Config{Shards: 1, Shard: cfg})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(fed.NewHandler(fleet))
	t.Cleanup(func() {
		hs.Close()
		fleet.Close()
	})
	return fleet.Shard(0), hs
}

func postMatrix(t *testing.T, client *http.Client, url string, a *matrix.Dense) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := matrix.WriteBinary(&buf, a); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/octet-stream", &buf)
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

// TestServingIntegration is the end-to-end acceptance test: an in-process
// matserve (the same Server + Handler cmd/matserve runs) under 32+
// concurrent mixed-size requests with duplicates, plus deadline and
// overload behavior.
func TestServingIntegration(t *testing.T) {
	opts := core.DefaultOptions(4)
	opts.NB = 16
	s, hs := startServer(t, serve.Config{
		Concurrency: 2,
		QueueDepth:  64,
		CacheBytes:  32 << 20,
		Opts:        opts,
	})
	client := hs.Client()
	invertURL := hs.URL + "/invert"

	// Warm the cache with one matrix so the burst's repeats of it are
	// guaranteed cache hits.
	warm := workload.DiagonallyDominant(24, 7001)
	if resp, _ := postMatrix(t, client, invertURL, warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm request: status %d", resp.StatusCode)
	}

	// Build the burst: 26 mixed-size requests from a seeded stream (some
	// duplicated by the mix itself), 3 repeats of the warmed matrix, and
	// 3 copies of one fresh matrix (in-flight duplicates). 32 total.
	mix := workload.Mix{
		Entries: []workload.MixEntry{{Order: 16, Weight: 5}, {Order: 24, Weight: 3}, {Order: 40, Weight: 2}},
		DupProb: 0.3,
	}
	specs := mix.Stream(42).Take(26)
	inputs := make([]*matrix.Dense, 0, 32)
	for _, sp := range specs {
		inputs = append(inputs, sp.Build())
	}
	for i := 0; i < 3; i++ {
		inputs = append(inputs, warm)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(inputs), func(i, j int) {
		inputs[i], inputs[j] = inputs[j], inputs[i]
	})
	// The fresh matrix's three copies stay at the tail: copy 1 is posted
	// alone (below) and its admission awaited while the blockers pin both
	// workers, so copies 2 and 3 are guaranteed to join the leader's
	// flight in the queue — a deterministic singleflight dedup instead of
	// a race between the copies and the leader's completion.
	fresh := workload.DiagonallyDominant(32, 7002)
	for i := 0; i < 3; i++ {
		inputs = append(inputs, fresh)
	}
	if len(inputs) != 32 {
		t.Fatalf("burst size %d", len(inputs))
	}

	// Pin both workers with big blockers so the burst's duplicates pile
	// up behind them and must dedup in flight.
	var blockers sync.WaitGroup
	for i := 0; i < 2; i++ {
		blockers.Add(1)
		go func(seed int64) {
			defer blockers.Done()
			resp, _ := postMatrix(t, client, invertURL, workload.DiagonallyDominant(160, seed))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("blocker: status %d", resp.StatusCode)
			}
		}(int64(8000 + i))
	}
	for s.Metrics().Counter("serve.admitted").Value() < 3 { // warm + 2 blockers
		time.Sleep(200 * time.Microsecond)
	}

	type outcome struct {
		status int
		source string
		inv    *matrix.Dense
	}
	outcomes := make([]outcome, len(inputs))
	var wg sync.WaitGroup
	post := func(i int, a *matrix.Dense) {
		defer wg.Done()
		resp, body := postMatrix(t, client, invertURL, a)
		o := outcome{status: resp.StatusCode, source: resp.Header.Get("X-Source")}
		if resp.StatusCode == http.StatusOK {
			inv, err := matrix.ReadBinary(bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: bad body: %v", i, err)
			} else {
				o.inv = inv
			}
		}
		outcomes[i] = o
	}
	// Post the fresh leader first and wait for its admission: with both
	// workers pinned it sits in the queue, so the two copies posted with
	// the rest of the burst must dedup against it in flight.
	leader := len(inputs) - 3
	wg.Add(1)
	go post(leader, inputs[leader])
	for s.Metrics().Counter("serve.admitted").Value() < 4 { // + fresh leader
		time.Sleep(200 * time.Microsecond)
	}
	for i, a := range inputs {
		if i == leader {
			continue
		}
		wg.Add(1)
		go post(i, a)
	}
	wg.Wait()
	blockers.Wait()

	// Every request succeeded and every inverse is numerically correct.
	for i, o := range outcomes {
		if o.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, o.status)
		}
		res, err := matrix.IdentityResidual(inputs[i], o.inv)
		if err != nil {
			t.Fatal(err)
		}
		if res > 1e-8 {
			t.Fatalf("request %d (order %d): residual %g", i, inputs[i].Rows, res)
		}
	}
	met := s.Metrics()
	if got := met.Counter("serve.dedup_hits").Value(); got == 0 {
		t.Fatal("no singleflight dedup despite in-flight duplicates")
	}
	if got := met.Counter("serve.cache_hits").Value(); got == 0 {
		t.Fatal("no cache hits despite repeated matrices")
	}

	// An already-expired deadline is rejected before any pipeline work.
	jobsBefore := met.Counter("mapreduce.jobs").Value()
	resp, body := postMatrix(t, client, invertURL+"?timeout=-1s", workload.DiagonallyDominant(24, 9999))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status %d body %q", resp.StatusCode, body)
	}
	if got := met.Counter("serve.expired").Value(); got == 0 {
		t.Fatal("serve.expired not incremented")
	}
	if got := met.Counter("mapreduce.jobs").Value(); got != jobsBefore {
		t.Fatalf("expired request ran %d jobs", got-jobsBefore)
	}

	// Observability endpoints serve the run's counters.
	hresp, err := client.Get(hs.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	statz, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if !strings.Contains(string(statz), "\"dedup_hits\"") {
		t.Fatalf("statz missing fields: %s", statz)
	}
	hresp, err = client.Get(hs.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	metricz, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if !strings.Contains(string(metricz), "serve.e2e_latency") {
		t.Fatalf("metricz missing serving histograms: %s", metricz)
	}
}

// TestServingIntegrationOverload drives a deliberately tiny server over
// capacity: over-quota requests must get 429 and the server must keep
// serving afterwards.
func TestServingIntegrationOverload(t *testing.T) {
	opts := core.DefaultOptions(4)
	opts.NB = 16
	s, hs := startServer(t, serve.Config{
		Concurrency: 1,
		QueueDepth:  1,
		CacheBytes:  1 << 20,
		Opts:        opts,
	})
	client := hs.Client()
	invertURL := hs.URL + "/invert"

	const burst = 16
	statuses := make([]int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postMatrix(t, client, invertURL, workload.DiagonallyDominant(32, int64(500+i)))
			statuses[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	counts := map[int]int{}
	for _, st := range statuses {
		counts[st]++
	}
	if counts[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no 429s from a burst of %d on queue depth 1: %v", burst, counts)
	}
	if counts[http.StatusOK]+counts[http.StatusTooManyRequests] != burst {
		t.Fatalf("unexpected statuses: %v", counts)
	}
	if got := s.Metrics().Counter("serve.rejected").Value(); got == 0 {
		t.Fatal("serve.rejected not incremented")
	}

	// Healthy afterwards: healthz is 200 and a fresh request inverts.
	hresp, err := client.Get(hs.URL + "/healthz")
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after burst: %v %v", hresp.StatusCode, err)
	}
	hresp.Body.Close()
	a := workload.DiagonallyDominant(24, 4242)
	resp, body := postMatrix(t, client, invertURL, a)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-burst request: status %d", resp.StatusCode)
	}
	inv, err := matrix.ReadBinary(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := matrix.IdentityResidual(a, inv); res > 1e-8 {
		t.Fatalf("post-burst residual %g", res)
	}
}

// TestHTTPHostileHeaderRejected: a 12-byte binary header claiming huge
// dimensions must get a 413 from the size check, not trigger a multi-PiB
// allocation (MaxBytesReader cannot help — the allocation would happen
// before any payload byte is read).
func TestHTTPHostileHeaderRejected(t *testing.T) {
	opts := core.DefaultOptions(4)
	opts.NB = 16
	_, hs := startServer(t, serve.Config{Opts: opts})

	var buf bytes.Buffer
	for _, v := range []uint32{0x4d585236, 1 << 24, 1 << 24} { // magic, rows, cols
		binary.Write(&buf, binary.LittleEndian, v)
	}
	resp, err := hs.Client().Post(hs.URL+"/invert", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("hostile header: status %d, want 413", resp.StatusCode)
	}
}

// TestHTTPValidationErrors maps the typed facade sentinels to 400s
// (malformed) and 422s (parses but semantically unusable).
func TestHTTPValidationErrors(t *testing.T) {
	opts := core.DefaultOptions(4)
	opts.NB = 16
	_, hs := startServer(t, serve.Config{Opts: opts})
	client := hs.Client()

	// Rectangular matrix: structurally valid upload that cannot be
	// inverted -> 422, with the observed shape in the message.
	resp, body := postMatrix(t, client, hs.URL+"/invert", matrix.New(3, 5))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("non-square: status %d body %q", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "not square") {
		t.Fatalf("non-square error body %q", body)
	}
	if !strings.Contains(string(body), "3x5") {
		t.Fatalf("non-square error body %q lacks observed shape", body)
	}

	// Empty matrix -> 400 (ErrEmptyMatrix), not a 500.
	resp, body = postMatrix(t, client, hs.URL+"/invert", matrix.New(0, 0))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty: status %d body %q", resp.StatusCode, body)
	}

	// Garbage body -> 400.
	gresp, err := client.Post(hs.URL+"/invert", "application/octet-stream", strings.NewReader("not a matrix"))
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage: status %d", gresp.StatusCode)
	}

	// Bad query parameter -> 400.
	qresp, err := client.Post(hs.URL+"/invert?timeout=banana", "application/octet-stream", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad timeout: status %d", qresp.StatusCode)
	}
}
