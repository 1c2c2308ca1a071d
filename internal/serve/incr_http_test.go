package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/incr"
	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/serve"
	"repro/internal/workload"
)

// postInvert posts one matrix to /invert with optional extra headers and
// returns the response plus decoded body bytes.
func postInvert(t *testing.T, client *http.Client, url string, a *matrix.Dense, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := matrix.WriteBinary(&buf, a); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	for k, v := range hdr {
		req.Header.Set(k, v)
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

// The incremental end-to-end path: invert a base, then post a rank-k row
// mutation of it — with the X-Base-Digest hint and without — and get a
// correct inverse back marked X-Serve-Source: incremental, with the
// /statz counters accounting for every probe and update.
func TestHTTPIncrementalServing(t *testing.T) {
	opts := core.DefaultOptions(4)
	opts.NB = 16
	s, hs := startServer(t, serve.Config{
		Concurrency: 2,
		QueueDepth:  16,
		CacheBytes:  32 << 20,
		Opts:        opts,
		Incr:        incr.Config{Enabled: true},
	})
	client := hs.Client()
	invertURL := hs.URL + "/invert"

	const n = 64
	base := workload.DiagonallyDominant(n, 9001)
	resp, _ := postInvert(t, client, invertURL, base, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base invert: status %d", resp.StatusCode)
	}
	if src := resp.Header.Get("X-Serve-Source"); src != "pipeline" {
		t.Fatalf("base invert source %q, want pipeline", src)
	}

	check := func(mut *matrix.Dense, body []byte) {
		t.Helper()
		got, err := matrix.ReadBinary(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		want, err := lu.Invert(mut)
		if err != nil {
			t.Fatal(err)
		}
		if d := matrix.MaxAbsDiff(got, want); d > 1e-8 {
			t.Fatalf("incremental inverse off by %g", d)
		}
	}

	// With the hint: the server looks the base up by digest.
	digest := serve.KeyFor(serve.Request{A: base}, opts)
	mut := workload.MutateRows(base, 2, 77)
	resp, body := postInvert(t, client, invertURL, mut, map[string]string{"X-Base-Digest": digest})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta invert: status %d", resp.StatusCode)
	}
	if src := resp.Header.Get("X-Serve-Source"); src != "incremental" {
		t.Fatalf("hinted delta served from %q, want incremental", src)
	}
	check(mut, body)

	// Without the hint: the fingerprint probe finds the base on its own.
	mut2 := workload.MutateRows(base, 3, 78)
	resp, body = postInvert(t, client, invertURL, mut2, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unhinted delta invert: status %d", resp.StatusCode)
	}
	if src := resp.Header.Get("X-Serve-Source"); src != "incremental" {
		t.Fatalf("unhinted delta served from %q, want incremental", src)
	}
	check(mut2, body)

	// A stale hint degrades to the probe, never errors.
	mut3 := workload.MutateRows(base, 1, 79)
	resp, body = postInvert(t, client, invertURL, mut3, map[string]string{"X-Base-Digest": "no-such-digest"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale-hint invert: status %d", resp.StatusCode)
	}
	if src := resp.Header.Get("X-Serve-Source"); src != "incremental" {
		t.Fatalf("stale-hint delta served from %q, want incremental", src)
	}
	check(mut3, body)

	// Statz carries the incremental and cache-rate counters.
	st := s.Snapshot()
	if st.Incr == nil {
		t.Fatal("stats missing incr section")
	}
	if st.Incr.Updates != 3 {
		t.Fatalf("incr updates %d, want 3", st.Incr.Updates)
	}
	if st.Incr.Probes < 2 {
		t.Fatalf("incr probes %d, want >= 2 (unhinted + stale-hint)", st.Incr.Probes)
	}
	if st.Incr.BasesIndexed == 0 {
		t.Fatal("no bases indexed after successful inversions")
	}
	if st.CacheMisses == 0 {
		t.Fatal("cache misses not counted")
	}
	hr, err := client.Get(hs.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var wire fed.Stats
	if err := json.NewDecoder(hr.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if got := wire.Shards[0].Serve.Incr; got == nil || got.Updates != st.Incr.Updates {
		t.Fatalf("statz incr section %+v does not match snapshot", got)
	}

	// An exact repeat of a delta request is a plain cache hit, not a
	// second update.
	resp, _ = postInvert(t, client, invertURL, mut, map[string]string{"X-Base-Digest": digest})
	if src := resp.Header.Get("X-Serve-Source"); src != "cache" {
		t.Fatalf("repeated delta served from %q, want cache", src)
	}
}

// A delta beyond the configured KMax is transparently recomputed by the
// full pipeline: correct answer, source "pipeline", declined counter.
func TestHTTPIncrementalFallbackBeyondKMax(t *testing.T) {
	opts := core.DefaultOptions(4)
	opts.NB = 16
	s, hs := startServer(t, serve.Config{
		Concurrency: 2,
		QueueDepth:  16,
		CacheBytes:  32 << 20,
		Opts:        opts,
		Incr:        incr.Config{Enabled: true, KMax: 1},
	})
	client := hs.Client()
	invertURL := hs.URL + "/invert"

	base := workload.DiagonallyDominant(48, 9100)
	if resp, _ := postInvert(t, client, invertURL, base, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("base invert: status %d", resp.StatusCode)
	}
	digest := serve.KeyFor(serve.Request{A: base}, opts)
	mut := workload.MutateRows(base, 4, 5) // rank 4 > KMax 1
	resp, body := postInvert(t, client, invertURL, mut, map[string]string{"X-Base-Digest": digest})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("oversize delta: status %d", resp.StatusCode)
	}
	if src := resp.Header.Get("X-Serve-Source"); src != "pipeline" {
		t.Fatalf("oversize delta served from %q, want pipeline fallback", src)
	}
	got, err := matrix.ReadBinary(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want, err := lu.Invert(mut)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(got, want); d > 1e-8 {
		t.Fatalf("fallback inverse off by %g", d)
	}
	st := s.Snapshot()
	if st.Incr == nil || st.Incr.Updates != 0 {
		t.Fatalf("oversize delta still updated: %+v", st.Incr)
	}
}

// With Incr disabled the hint header is inert: requests serve normally
// and no incr section appears in stats.
func TestHTTPIncrementalDisabled(t *testing.T) {
	opts := core.DefaultOptions(4)
	opts.NB = 16
	s, hs := startServer(t, serve.Config{
		Concurrency: 1,
		QueueDepth:  8,
		Opts:        opts,
	})
	client := hs.Client()
	base := workload.DiagonallyDominant(32, 9200)
	if resp, _ := postInvert(t, client, hs.URL+"/invert", base, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	mut := workload.MutateRows(base, 1, 1)
	digest := serve.KeyFor(serve.Request{A: base}, opts)
	resp, _ := postInvert(t, client, hs.URL+"/invert", mut, map[string]string{"X-Base-Digest": digest})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if src := resp.Header.Get("X-Serve-Source"); src != "pipeline" {
		t.Fatalf("source %q with incr disabled", src)
	}
	if st := s.Snapshot(); st.Incr != nil {
		t.Fatalf("incr stats present while disabled: %+v", st.Incr)
	}
}
