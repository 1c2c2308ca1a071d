package matrix

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := randDense(rng, 13, 7)
	var buf bytes.Buffer
	if err := WriteText(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, m, 0) {
		t.Fatal("text round-trip not exact")
	}
}

func TestTextRoundTripExtremeValues(t *testing.T) {
	m := FromRows([][]float64{
		{0, -0, 1e-308, -1e308},
		{math.Pi, 1.0 / 3.0, math.SmallestNonzeroFloat64, math.MaxFloat64},
	})
	var buf bytes.Buffer
	if err := WriteText(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, m, 0) {
		t.Fatal("extreme values must round-trip exactly through 17-digit formatting")
	}
}

func TestReadTextErrors(t *testing.T) {
	if _, err := ReadText(strings.NewReader("1 2\n3\n")); err == nil {
		t.Fatal("ragged input accepted")
	}
	if _, err := ReadText(strings.NewReader("1 x\n")); err == nil {
		t.Fatal("non-numeric input accepted")
	}
}

func TestReadTextSkipsBlankLines(t *testing.T) {
	m, err := ReadText(strings.NewReader("1 2\n\n3 4\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2 || m.At(1, 1) != 4 {
		t.Fatalf("parsed %v", m)
	}
}

func TestReadTextEmpty(t *testing.T) {
	m, err := ReadText(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("empty input gave %dx%d", m.Rows, m.Cols)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	m := randDense(rng, 9, 17)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != BinarySize(9, 17) {
		t.Fatalf("binary size = %d, want %d", buf.Len(), BinarySize(9, 17))
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, m, 0) {
		t.Fatal("binary round-trip not exact")
	}
}

func TestReadBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte{1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0})); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReadBinaryLimit(t *testing.T) {
	// A hostile 12-byte header claiming huge dimensions must be rejected
	// by the size check alone, before any element storage is allocated.
	hdr := func(rows, cols uint32) []byte {
		var buf bytes.Buffer
		for _, v := range []uint32{binaryMagic, rows, cols} {
			b := make([]byte, 4)
			binary.LittleEndian.PutUint32(b, v)
			buf.Write(b)
		}
		return buf.Bytes()
	}
	_, err := ReadBinaryLimit(bytes.NewReader(hdr(1<<24, 1<<24)), 64<<20)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("2 PiB claim under a 64 MiB limit: err = %v, want ErrTooLarge", err)
	}

	// A matrix exactly at the limit still round-trips.
	rng := rand.New(rand.NewSource(34))
	m := randDense(rng, 6, 6)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinaryLimit(bytes.NewReader(buf.Bytes()), BinarySize(6, 6))
	if err != nil {
		t.Fatalf("exact-size limit rejected: %v", err)
	}
	if !Equal(got, m, 0) {
		t.Fatal("limited read not exact")
	}
	// One byte under the encoded size must reject.
	if _, err := ReadBinaryLimit(bytes.NewReader(buf.Bytes()), BinarySize(6, 6)-1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("undersized limit: err = %v, want ErrTooLarge", err)
	}
}

func TestReadBinaryTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	m := randDense(rng, 4, 4)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestSizeEstimates(t *testing.T) {
	// Table 3 sanity: binary is 8 bytes/element, text roughly 2.5x that.
	if BinarySize(1000, 1000) != 12+8_000_000 {
		t.Fatalf("BinarySize = %d", BinarySize(1000, 1000))
	}
	if TextSizeEstimate(1000, 1000) <= BinarySize(1000, 1000) {
		t.Fatal("text estimate should exceed binary size")
	}
}

// Property: write/read composition is the identity for both codecs.
func TestQuickIORoundTrip(t *testing.T) {
	f := func(seed int64, rRaw, cRaw uint8) bool {
		r := int(rRaw%12) + 1
		c := int(cRaw%12) + 1
		m := randDense(rand.New(rand.NewSource(seed)), r, c)
		var tb, bb bytes.Buffer
		if WriteText(&tb, m) != nil || WriteBinary(&bb, m) != nil {
			return false
		}
		fromText, err1 := ReadText(&tb)
		fromBin, err2 := ReadBinary(&bb)
		return err1 == nil && err2 == nil && Equal(fromText, m, 0) && Equal(fromBin, m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestReadBinaryBackToBack: the stream decoder consumes exactly
// BinarySize bytes, so two matrices written one after the other decode
// with two sequential calls on one reader (the /lstsq A‖b body).
func TestReadBinaryBackToBack(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	// The first payload spans several conversion chunks.
	a, b := randDense(rng, 70, 61), randDense(rng, 70, 1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&buf, b); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("trailer")
	// iotest-style one-byte-at-a-time reader: short reads must not matter.
	r := io.Reader(oneByteReader{&buf})
	gotA, err := ReadBinaryLimit(r, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := ReadBinaryLimit(r, 1<<20)
	if err != nil {
		t.Fatalf("second matrix: %v", err)
	}
	if !Equal(gotA, a, 0) || !Equal(gotB, b, 0) {
		t.Fatal("back-to-back decode changed values")
	}
	if rest, _ := io.ReadAll(r); string(rest) != "trailer" {
		t.Fatalf("decoder consumed past the payload: %q left", rest)
	}
}

type oneByteReader struct{ r io.Reader }

func (o oneByteReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return o.r.Read(p[:1])
}

func TestAppendBinaryMatchesWriteBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, dims := range [][2]int{{0, 0}, {0, 5}, {1, 1}, {64, 64}, {90, 91}} {
		m := randDense(rng, dims[0], dims[1])
		var buf bytes.Buffer
		if err := WriteBinary(&buf, m); err != nil {
			t.Fatal(err)
		}
		enc := AppendBinary([]byte("xy"), m)
		if !bytes.Equal(enc[2:], buf.Bytes()) || int64(buf.Len()) != BinarySize(dims[0], dims[1]) {
			t.Fatalf("%dx%d: encoders disagree", dims[0], dims[1])
		}
		got, err := DecodeBinary(buf.Bytes())
		if err != nil || !Equal(got, m, 0) {
			t.Fatalf("%dx%d: DecodeBinary: %v", dims[0], dims[1], err)
		}
	}
}

// TestDecodeBinaryTrustsTheSliceNotTheHeader: a header whose dimensions do
// not match the bytes held is rejected before anything is allocated.
func TestDecodeBinaryTrustsTheSliceNotTheHeader(t *testing.T) {
	enc := AppendBinary(nil, FromRows([][]float64{{1, 2}, {3, 4}}))
	hostile := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(hostile[4:], 1<<24)
	binary.LittleEndian.PutUint32(hostile[8:], 1<<24)
	for name, data := range map[string][]byte{
		"oversized dims":    hostile,
		"truncated payload": enc[:len(enc)-1],
		"truncated header":  enc[:7],
		"trailing bytes":    append(append([]byte(nil), enc...), 0),
	} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := DecodeBinary(data); err == nil {
				t.Errorf("%s accepted", name)
			}
		})
		// Only the error value itself may be allocated.
		if allocs > 8 {
			t.Errorf("%s: %v allocations", name, allocs)
		}
	}
	binary.LittleEndian.PutUint32(hostile[4:], 1<<24+1)
	if _, err := DecodeBinary(hostile); err == nil {
		t.Fatal("dimension over the format cap accepted")
	}
}

func TestDecodeBinaryRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	m := randDense(rng, 9, 7)
	enc := AppendBinary(nil, m)
	for _, reg := range [][4]int{{0, 9, 0, 7}, {2, 5, 1, 6}, {8, 9, 6, 7}, {3, 3, 0, 7}, {0, 9, 4, 4}} {
		r0, r1, c0, c1 := reg[0], reg[1], reg[2], reg[3]
		want := m.Block(r0, r1, c0, c1)
		dst := New(12, 13)
		dst.Fill(-1)
		if err := DecodeBinaryRegion(enc, r0, r1, c0, c1, dst, 2, 3, false); err != nil {
			t.Fatal(err)
		}
		if !Equal(dst.Block(2, 2+want.Rows, 3, 3+want.Cols), want, 0) {
			t.Fatalf("region %v differs", reg)
		}
		dstT := New(12, 13)
		dstT.Fill(-1)
		if err := DecodeBinaryRegion(enc, r0, r1, c0, c1, dstT, 1, 4, true); err != nil {
			t.Fatal(err)
		}
		if !Equal(dstT.Block(1, 1+want.Cols, 4, 4+want.Rows), want.Transpose(), 0) {
			t.Fatalf("transposed region %v differs", reg)
		}
		// Everything outside the destination window is untouched.
		untouched := func(d *Dense, h, w, dr, dc int) bool {
			for i := 0; i < d.Rows; i++ {
				for j := 0; j < d.Cols; j++ {
					in := i >= dr && i < dr+h && j >= dc && j < dc+w
					if !in && d.At(i, j) != -1 {
						return false
					}
				}
			}
			return true
		}
		if !untouched(dst, want.Rows, want.Cols, 2, 3) || !untouched(dstT, want.Cols, want.Rows, 1, 4) {
			t.Fatalf("region %v wrote outside its window", reg)
		}
	}
	dst := New(3, 3)
	for name, err := range map[string]error{
		"region outside":  DecodeBinaryRegion(enc, 0, 10, 0, 7, New(20, 20), 0, 0, false),
		"negative origin": DecodeBinaryRegion(enc, -1, 2, 0, 2, dst, 0, 0, false),
		"inverted range":  DecodeBinaryRegion(enc, 4, 2, 0, 2, dst, 0, 0, false),
		"dst too small":   DecodeBinaryRegion(enc, 0, 4, 0, 2, dst, 0, 0, false),
		"dst too small T": DecodeBinaryRegion(enc, 0, 2, 0, 4, dst, 0, 0, true),
		"dst offset":      DecodeBinaryRegion(enc, 0, 2, 0, 2, dst, 2, 0, false),
		"truncated":       DecodeBinaryRegion(enc[:len(enc)-8], 0, 1, 0, 1, dst, 0, 0, false),
	} {
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if MaxAbs(dst) != 0 {
		t.Fatal("a rejected decode wrote to its destination")
	}
}
