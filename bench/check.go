package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"

	mrinverse "repro"
	"repro/internal/incr"
	"repro/internal/matrix"
)

// Correctness is part of the failure count, not a metric of its own: an
// operation whose output fails its check counts as one failed operation,
// exactly like a refused or broken request. The tolerances are residual
// bounds, so a change that reorders a summation does not read as a
// failure. Every check runs outside the operation's timed interval.

const (
	// batchTol bounds max|I - A*inv| for mrinverse.Invert outputs.
	batchTol = 1e-8
	// servedTol bounds the sampled-column residual of a served inverse;
	// it is the incr guardrail's own bound, the loosest answer matserve
	// promises.
	servedTol = 1e-6
	// lstsqTol bounds the relative normal-equations residual of a served
	// least-squares solution, tsqr's own guardrail.
	lstsqTol = 1e-8
	// sampleCols is how many evenly spaced columns a sampled check reads.
	sampleCols = 16
	// maxBodyBytes bounds a response the checker will decode.
	maxBodyBytes = 64 << 20
)

// checkInverse returns why inv is not an acceptable inverse of a, or "".
// full computes the whole residual (O(n^3)); otherwise sampleCols columns
// are checked (O(n^2) each).
func checkInverse(a, inv *matrix.Dense, tol float64, full bool) string {
	if inv == nil {
		return "no inverse returned"
	}
	if inv.Rows != a.Rows || inv.Cols != a.Cols {
		return fmt.Sprintf("inverse is %dx%d, want %dx%d", inv.Rows, inv.Cols, a.Rows, a.Cols)
	}
	var r float64
	if full {
		r = mrinverse.Residual(a, inv)
	} else {
		r = incr.SampledResidual(a, inv, sampleCols)
	}
	if !(r <= tol) {
		return fmt.Sprintf("residual %.3g > %.3g", r, tol)
	}
	return ""
}

// checkLstsq returns why x is not an acceptable least-squares solution of
// min |A x - b|, or "": the normal-equations residual |A^T (A x - b)|inf
// must not exceed lstsqTol * |A^T b|inf.
func checkLstsq(a, b, x *matrix.Dense) string {
	if x == nil {
		return "no solution returned"
	}
	if x.Rows != a.Cols || x.Cols != b.Cols {
		return fmt.Sprintf("solution is %dx%d, want %dx%d", x.Rows, x.Cols, a.Cols, b.Cols)
	}
	var worst, scale float64
	for j := 0; j < b.Cols; j++ {
		ax, err := matrix.MulVec(a, x.Col(j))
		if err != nil {
			return err.Error()
		}
		bj := b.Col(j)
		for i := range ax {
			ax[i] -= bj[i]
		}
		for c := 0; c < a.Cols; c++ {
			var res, rhs float64
			for i := 0; i < a.Rows; i++ {
				res += a.At(i, c) * ax[i]
				rhs += a.At(i, c) * bj[i]
			}
			if math.IsNaN(res) {
				return "solution has NaN"
			}
			worst = math.Max(worst, math.Abs(res))
			scale = math.Max(scale, math.Abs(rhs))
		}
	}
	if !(worst <= lstsqTol*scale) {
		return fmt.Sprintf("normal-equations residual %.3g > %.3g", worst, lstsqTol*scale)
	}
	return ""
}

// checkStatus returns why an HTTP status counts as a failed operation.
func checkStatus(status int) string {
	if status != http.StatusOK {
		return fmt.Sprintf("status %d", status)
	}
	return ""
}

// decodeServed parses a response body, which must hold exactly one binary
// matrix.
func decodeServed(body []byte) (*matrix.Dense, string) {
	out, err := matrix.ReadBinaryLimit(bytes.NewReader(body), maxBodyBytes)
	if err != nil {
		return nil, "undecodable response: " + err.Error()
	}
	if want := matrix.BinarySize(out.Rows, out.Cols); int64(len(body)) != want {
		return nil, fmt.Sprintf("response is %d bytes, a %dx%d matrix takes %d",
			len(body), out.Rows, out.Cols, want)
	}
	return out, ""
}

// checkOutput checks a served result against the request that produced
// it: a least-squares solution when the request carried a right-hand
// side, an inverse otherwise.
func checkOutput(req *request, out *matrix.Dense) string {
	if req.b != nil {
		return checkLstsq(req.a, req.b, out)
	}
	return checkInverse(req.a, out, servedTol, false)
}
