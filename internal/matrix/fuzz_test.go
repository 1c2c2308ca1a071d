package matrix

import (
	"bytes"
	"math"
	"testing"
)

// Native fuzz targets for the on-disk codecs. Under plain `go test`
// these run the seed corpus; `go test -fuzz=FuzzReadBinary ./internal/matrix`
// explores further. The invariant in each: arbitrary input must never
// panic, and when parsing succeeds the value must re-encode and re-parse
// to the same matrix.

func FuzzReadText(f *testing.F) {
	f.Add("1 2\n3 4\n")
	f.Add("")
	f.Add("1.5e308 -0\n")
	f.Add("nan inf\n")
	f.Add("x y\n")
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ReadText(bytes.NewReader([]byte(s)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, m); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if again.Rows != m.Rows || again.Cols != m.Cols {
			t.Fatalf("round-trip changed shape: %dx%d vs %dx%d", again.Rows, again.Cols, m.Rows, m.Cols)
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteBinary(&seed, FromRows([][]float64{{1, 2}, {3, 4}}))
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x36, 0x52, 0x58, 0x4d, 1, 0, 0, 0, 1, 0, 0, 0}) // header, no payload
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, m); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if !Equal(again, m, 0) && IsFinite(m) {
			t.Fatal("round-trip changed finite values")
		}
	})
}

// FuzzDecodeBinaryRegion drives the in-memory region decoder with
// arbitrary bytes, regions and destinations: it must never panic, never
// allocate from header fields, and on success agree with the stream
// decoder's view of the same bytes.
func FuzzDecodeBinaryRegion(f *testing.F) {
	enc := AppendBinary(nil, FromRows([][]float64{{1, 2, 3}, {4, 5, 6}}))
	hostile := append([]byte(nil), enc...)
	copy(hostile[4:], []byte{0, 0, 0, 1, 0, 0, 0, 1}) // 1<<24 x 1<<24
	f.Add(enc, 0, 2, 0, 3, 2, 3, 0, 0, false)
	f.Add(enc, 1, 2, 1, 3, 4, 4, 1, 1, true)
	f.Add(enc[:7], 0, 1, 0, 1, 2, 2, 0, 0, false)          // truncated header
	f.Add(enc[:len(enc)-3], 0, 1, 0, 1, 2, 2, 0, 0, false) // truncated payload
	f.Add(hostile, 0, 1, 0, 1, 2, 2, 0, 0, false)          // oversized dims
	f.Add(enc, 0, 3, 0, 3, 4, 4, 0, 0, false)              // region outside the matrix
	f.Add(enc, 0, 2, 0, 3, 1, 1, 0, 0, true)               // destination too small
	f.Add(enc, -1, 2, 0, 3, 4, 4, -1, 0, false)            // negative coordinates
	f.Fuzz(func(t *testing.T, data []byte, r0, r1, c0, c1, dRows, dCols, dr, dc int, transpose bool) {
		if dRows < 0 || dCols < 0 || dRows > 64 || dCols > 64 {
			return
		}
		dst := New(dRows, dCols)
		var derr error
		if allocs := testing.AllocsPerRun(1, func() {
			derr = DecodeBinaryRegion(data, r0, r1, c0, c1, dst, dr, dc, transpose)
		}); derr == nil && allocs != 0 {
			t.Fatalf("successful region decode allocated %v times", allocs)
		}
		if derr != nil {
			if MaxAbs(dst) != 0 {
				t.Fatal("rejected decode wrote to its destination")
			}
			return
		}
		m, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("region decode accepted bytes the stream decoder rejects: %v", err)
		}
		want := m.Block(r0, r1, c0, c1)
		if transpose {
			want = want.Transpose()
		}
		got := dst.Block(dr, dr+want.Rows, dc, dc+want.Cols)
		for i, v := range want.Data {
			if math.Float64bits(v) != math.Float64bits(got.Data[i]) {
				t.Fatal("region decode disagrees with the stream decoder")
			}
		}
	})
}

func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
	f.Add("%%MatrixMarket matrix array real general\n% c\n1 1\n1\n")
	f.Add("junk")
	f.Add("%%MatrixMarket matrix array real general\n-1 -1\n")
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ReadMatrixMarket(bytes.NewReader([]byte(s)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, m); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if _, err := ReadMatrixMarket(&buf); err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
	})
}
