package fed

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/matrix"
	"repro/internal/serve"
	"repro/internal/workload"
)

// TestStatusOf checks every row of the status table, wrapped the way the
// validators wrap sentinels, plus the 500 fallback.
func TestStatusOf(t *testing.T) {
	for _, s := range statuses {
		if got := statusOf(fmt.Errorf("ctx 3x5: %w", s.err)); got != s.status {
			t.Errorf("statusOf(%v) = %d, want %d", s.err, got, s.status)
		}
	}
	if got := statusOf(errors.New("disk on fire")); got != http.StatusInternalServerError {
		t.Errorf("untyped error: %d, want 500", got)
	}
}

var decodePaths = map[serve.Kind]string{
	serve.KindInvert: "/invert", serve.KindLstsq: "/lstsq", serve.KindPinv: "/pinv",
}

// FuzzDecodeRequest drives the one decoder with arbitrary bodies for
// every kind. It must never panic, must answer only 200 (decoded),
// 400, 413 or 415, and must not allocate from a header that fails the
// size limit.
func FuzzDecodeRequest(f *testing.F) {
	a := binBody(f, workload.RandomRect(6, 3, 1))
	ab := binBody(f, workload.RandomRect(6, 3, 1), workload.RandomRect(6, 1, 2))
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f.Add(a[:7], false)                                // truncated header
	f.Add(a[:len(a)-5], false)                         // truncated payload
	f.Add(binHeader(1<<24, 1<<24), false)              // oversized A
	f.Add(cat(a, binHeader(1<<24, 2)), false)          // oversized b
	f.Add(a, false)                                    // A with no b
	f.Add(cat(ab, []byte("trailing bytes")), false)    // back to back, then junk
	f.Add([]byte("1 2\n3 4\n"), true)                  // text
	f.Add(cat(a, binBody(f, matrix.New(0, 0))), false) // empty b
	f.Add(cat(binBody(f, matrix.New(0, 7)), a), false) // empty A
	f.Fuzz(func(t *testing.T, body []byte, text bool) {
		for kind, path := range decodePaths {
			r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			if text {
				r.Header.Set("Content-Type", "text/plain")
			}
			w := httptest.NewRecorder()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			req, _, cancel, _, ok := decodeRequest(w, r, kind)
			runtime.ReadMemStats(&after)
			if ok {
				cancel()
				if w.Code != http.StatusOK || req.A == nil || (kind == serve.KindLstsq) != (req.B != nil) {
					t.Fatalf("%s: decoded with status %d, A %v, B %v", path, w.Code, req.A != nil, req.B != nil)
				}
				continue
			}
			switch w.Code {
			case http.StatusBadRequest, http.StatusUnsupportedMediaType:
			case http.StatusRequestEntityTooLarge:
				// Only matrices whose payload arrived were allocated.
				if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(body))+1<<20 {
					t.Fatalf("%s: 413 after allocating %d bytes for a %d-byte body", path, grew, len(body))
				}
			default:
				t.Fatalf("%s: status %d", path, w.Code)
			}
		}
	})
}
