package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/workload"
)

func encode(t *testing.T, m *matrix.Dense) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := matrix.WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckInverseCatchesAPerturbedResult(t *testing.T) {
	a := workload.DiagonallyDominant(48, 3)
	inv, err := lu.Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, full := range []bool{true, false} {
		if why := checkInverse(a, inv, batchTol, full); why != "" {
			t.Errorf("correct inverse rejected (full=%v): %s", full, why)
		}
	}
	bad := inv.Clone()
	bad.Set(5, 0, bad.At(5, 0)+1e-5) // column 0 is always among the sampled ones
	for _, full := range []bool{true, false} {
		if why := checkInverse(a, bad, batchTol, full); !strings.Contains(why, "residual") {
			t.Errorf("perturbed inverse accepted (full=%v): %q", full, why)
		}
	}
	if why := checkInverse(a, matrix.New(48, 47), batchTol, false); !strings.Contains(why, "48x47") {
		t.Errorf("wrong shape: %q", why)
	}
	if why := checkInverse(a, nil, batchTol, false); why == "" {
		t.Error("missing inverse accepted")
	}
}

func TestCheckLstsq(t *testing.T) {
	sp := workload.RequestSpec{Order: 64, Cols: 4, Seed: 9}
	a, b := sp.Build(), sp.Rhs()
	// Solve the normal equations directly: x = (A^T A)^-1 A^T b.
	at := a.Transpose()
	ata, _ := matrix.Mul(at, a)
	atb, _ := matrix.Mul(at, b)
	inv, err := lu.Invert(ata)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := matrix.Mul(inv, atb)
	if why := checkLstsq(a, b, x); why != "" {
		t.Errorf("correct solution rejected: %s", why)
	}
	x.Set(0, 0, x.At(0, 0)+1e-4)
	if why := checkLstsq(a, b, x); !strings.Contains(why, "residual") {
		t.Errorf("perturbed solution accepted: %q", why)
	}
	if why := checkLstsq(a, b, matrix.New(5, 1)); !strings.Contains(why, "5x1") {
		t.Errorf("wrong shape: %q", why)
	}
}

// A server that answers wrongly in three ways: each wrong answer must
// count as exactly one failed operation, and the right one as none.
func TestServedFailuresEachCountOnce(t *testing.T) {
	w, _ := findWorkload("serve-cold")
	r := newReqStream(w, 1).next()
	inv, err := lu.Invert(r.a)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := inv.Clone()
	perturbed.Set(1, 0, perturbed.At(1, 0)+1e-3)
	answers := map[string]func(http.ResponseWriter){
		"/right":     func(rw http.ResponseWriter) { rw.Write(encode(t, inv)) },
		"/perturbed": func(rw http.ResponseWriter) { rw.Write(encode(t, perturbed)) },
		"/shape":     func(rw http.ResponseWriter) { rw.Write(encode(t, matrix.New(inv.Rows, inv.Cols-1))) },
		"/truncated": func(rw http.ResponseWriter) { rw.Write(encode(t, inv)[:100]) },
		"/refused":   func(rw http.ResponseWriter) { http.Error(rw, "queue full", http.StatusTooManyRequests) },
	}
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		answers[req.URL.Path](rw)
	}))
	defer ts.Close()
	svc := &service{url: ts.URL}
	cl := newClient()
	defer cl.close()

	ph := &phase{}
	want := map[string]string{"/right": "", "/perturbed": "residual", "/shape": "want", "/truncated": "undecodable", "/refused": "status 429"}
	for _, path := range []string{"/right", "/perturbed", "/shape", "/truncated", "/refused"} {
		req := *r
		req.path = path
		res, out := svc.exchange(cl, &req, viaHTTP, nil)
		if res.failed == "" {
			res.failed = verify(&req, out, nil)
		}
		if (want[path] == "") != (res.failed == "") || !strings.Contains(res.failed, want[path]) {
			t.Errorf("%s: failed = %q, want it to mention %q", path, res.failed, want[path])
		}
		ph.ops = append(ph.ops, res)
	}
	if got := ph.failures(); got != 4 || len(ph.ops) != 5 {
		t.Errorf("%d failed of %d, want 4 of 5", got, len(ph.ops))
	}
	if got := len(ph.latencies()); got != 1 {
		t.Errorf("%d latencies kept, want only the successful one", got)
	}
}
