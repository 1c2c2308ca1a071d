package matrix

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The on-disk formats mirror the paper's Table 3: a text format ("a.txt",
// one matrix row per line, space-separated decimal values) and a binary
// format (little-endian float64, 8 bytes/element plus a small header).

// WriteText writes m in the text format: each row on its own line, elements
// separated by single spaces, formatted with %.17g so values round-trip.
func WriteText(w io.Writer, m *Dense) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if j > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', 17, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text format. Every line must contain the same number
// of values; blank lines are ignored.
func ReadText(r io.Reader) (*Dense, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var rows [][]float64
	cols := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if cols == -1 {
			cols = len(fields)
		} else if len(fields) != cols {
			return nil, fmt.Errorf("matrix: ReadText line %d has %d values, want %d", lineNo, len(fields), cols)
		}
		row := make([]float64, len(fields))
		for j, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("matrix: ReadText line %d field %d: %w", lineNo, j, err)
			}
			row[j] = v
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return FromRows(rows), nil
}

// binaryMagic identifies the binary matrix format.
const binaryMagic = uint32(0x4d585236) // "MXR6"

const (
	binaryHeaderSize = 12
	// maxBinaryDim caps each header-declared dimension of the format.
	maxBinaryDim = 1 << 24
	// codecChunk is the streaming codecs' fixed conversion buffer.
	codecChunk = 32 << 10
)

// AppendBinary appends m in the binary format to dst: magic, rows, cols
// (uint32 LE) followed by rows*cols little-endian float64 values in
// row-major order.
func AppendBinary(dst []byte, m *Dense) []byte {
	dst = appendBinaryHeader(dst, m.Rows, m.Cols)
	off := len(dst)
	dst = append(dst, make([]byte, 8*len(m.Data))...)
	encodeFloats(dst[off:], m.Data)
	return dst
}

func appendBinaryHeader(dst []byte, rows, cols int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, binaryMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rows))
	return binary.LittleEndian.AppendUint32(dst, uint32(cols))
}

// encodeFloats writes src as little-endian float64s at the front of dst,
// which must hold at least 8*len(src) bytes. Four values per iteration:
// the unrolled body is three times the rate of the one-value loop.
func encodeFloats(dst []byte, src []float64) {
	le := binary.LittleEndian
	dst = dst[:8*len(src)]
	for ; len(src) >= 4; src, dst = src[4:], dst[32:] {
		s, d := src[:4], dst[:32]
		le.PutUint64(d, math.Float64bits(s[0]))
		le.PutUint64(d[8:], math.Float64bits(s[1]))
		le.PutUint64(d[16:], math.Float64bits(s[2]))
		le.PutUint64(d[24:], math.Float64bits(s[3]))
	}
	for i, v := range src {
		le.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// WriteBinary writes m to w in the binary format (see AppendBinary),
// converting through a fixed chunk buffer.
func WriteBinary(w io.Writer, m *Dense) error {
	buf := make([]byte, min(int64(codecChunk), BinarySize(m.Rows, m.Cols)))
	n := len(appendBinaryHeader(buf[:0], m.Rows, m.Cols))
	for rest := m.Data; len(rest) > 0; {
		part := rest[:min((len(buf)-n)/8, len(rest))]
		encodeFloats(buf[n:], part)
		n += 8 * len(part)
		if rest = rest[len(part):]; len(rest) > 0 {
			if _, err := w.Write(buf[:n]); err != nil {
				return err
			}
			n = 0
		}
	}
	_, err := w.Write(buf[:n])
	return err
}

// ErrTooLarge reports a binary matrix whose encoded size exceeds the
// limit passed to ReadBinaryLimit. It is returned before any element
// storage is allocated, so callers reading untrusted input can bound
// memory by the limit alone.
var ErrTooLarge = errors.New("matrix: encoded size exceeds limit")

// ReadBinary parses the binary format written by WriteBinary. The input
// is trusted: dimensions are taken from the header (capped only at the
// format's 1<<24 bound each). For untrusted readers use ReadBinaryLimit;
// for bytes already in memory use DecodeBinary.
func ReadBinary(r io.Reader) (*Dense, error) {
	return ReadBinaryLimit(r, 0)
}

// ReadBinaryLimit parses the binary format, rejecting any matrix whose
// total encoded size (header plus payload, per BinarySize) exceeds
// maxBytes with ErrTooLarge. The check runs before element storage is
// allocated: the header's dimensions are untrusted, so a hostile
// 12-byte request cannot demand a rows*cols*8 allocation larger than
// the caller's bound. maxBytes <= 0 means no limit beyond the format's
// own dimension cap. Exactly BinarySize(rows, cols) bytes are consumed
// from r, so matrices stored back to back decode with sequential calls.
func ReadBinaryLimit(r io.Reader, maxBytes int64) (*Dense, error) {
	var hdr [binaryHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("matrix: ReadBinary header: %w", err)
	}
	rows, cols, err := binaryHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	if size := BinarySize(rows, cols); maxBytes > 0 && size > maxBytes {
		return nil, fmt.Errorf("matrix: ReadBinary %dx%d needs %d bytes, limit %d: %w",
			rows, cols, size, maxBytes, ErrTooLarge)
	}
	m := New(rows, cols)
	buf := make([]byte, min(codecChunk, 8*len(m.Data)))
	for off := 0; off < len(m.Data); {
		part := m.Data[off:min(off+len(buf)/8, len(m.Data))]
		if _, err := io.ReadFull(r, buf[:8*len(part)]); err != nil {
			return nil, fmt.Errorf("matrix: ReadBinary elements from %d: %w", off, err)
		}
		decodeFloats(part, buf)
		off += len(part)
	}
	return m, nil
}

// binaryHeader validates a 12-byte header and returns its dimensions.
func binaryHeader(hdr []byte) (rows, cols int, err error) {
	if magic := binary.LittleEndian.Uint32(hdr); magic != binaryMagic {
		return 0, 0, fmt.Errorf("matrix: ReadBinary bad magic %#x", magic)
	}
	r, c := binary.LittleEndian.Uint32(hdr[4:]), binary.LittleEndian.Uint32(hdr[8:])
	if r > maxBinaryDim || c > maxBinaryDim {
		return 0, 0, fmt.Errorf("matrix: ReadBinary implausible dims %dx%d", r, c)
	}
	return int(r), int(c), nil
}

// decodeFloats fills dst from the little-endian float64s at the front of
// src, which must hold at least 8*len(dst) bytes (unrolled as
// encodeFloats is).
func decodeFloats(dst []float64, src []byte) {
	le := binary.LittleEndian
	src = src[:8*len(dst)]
	for ; len(dst) >= 4; dst, src = dst[4:], src[32:] {
		d, s := dst[:4], src[:32]
		d[0] = math.Float64frombits(le.Uint64(s))
		d[1] = math.Float64frombits(le.Uint64(s[8:]))
		d[2] = math.Float64frombits(le.Uint64(s[16:]))
		d[3] = math.Float64frombits(le.Uint64(s[24:]))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(le.Uint64(src[8*i:]))
	}
}

// BinaryDims returns the dimensions of the matrix encoded in data, which
// must be one whole encoding: the header's dimensions are believed only
// if len(data) is exactly BinarySize(rows, cols), so a corrupt header can
// never size an allocation beyond the bytes actually held.
func BinaryDims(data []byte) (rows, cols int, err error) {
	if len(data) < binaryHeaderSize {
		return 0, 0, fmt.Errorf("matrix: DecodeBinary header: %d bytes: %w", len(data), io.ErrUnexpectedEOF)
	}
	rows, cols, err = binaryHeader(data)
	if err != nil {
		return 0, 0, err
	}
	if want := BinarySize(rows, cols); int64(len(data)) != want {
		return 0, 0, fmt.Errorf("matrix: DecodeBinary %dx%d needs %d bytes, have %d", rows, cols, want, len(data))
	}
	return rows, cols, nil
}

// DecodeBinary parses one whole binary-format matrix held in memory.
func DecodeBinary(data []byte) (*Dense, error) {
	rows, cols, err := BinaryDims(data)
	if err != nil {
		return nil, err
	}
	m := New(rows, cols)
	decodeFloats(m.Data, data[binaryHeaderSize:])
	return m, nil
}

// DecodeBinaryRegion decodes rows [r0, r1) x cols [c0, c1) of the matrix
// encoded in data straight into dst, with the region's first element at
// dst (dr, dc). With transpose the region lands transposed: stored element
// (r, c) goes to dst (dr+c-c0, dc+r-r0). Nothing is allocated, and dst is
// not touched unless data is one whole valid encoding and both the region
// and its destination are in range.
func DecodeBinaryRegion(data []byte, r0, r1, c0, c1 int, dst *Dense, dr, dc int, transpose bool) error {
	rows, cols, err := BinaryDims(data)
	if err != nil {
		return err
	}
	if r0 < 0 || c0 < 0 || r1 > rows || c1 > cols || r0 > r1 || c0 > c1 {
		return fmt.Errorf("matrix: DecodeBinaryRegion [%d:%d,%d:%d] outside stored %dx%d", r0, r1, c0, c1, rows, cols)
	}
	h, w := r1-r0, c1-c0
	if transpose {
		h, w = w, h
	}
	if dr < 0 || dc < 0 || dr+h > dst.Rows || dc+w > dst.Cols {
		return fmt.Errorf("matrix: DecodeBinaryRegion %dx%d at (%d,%d) outside destination %dx%d", h, w, dr, dc, dst.Rows, dst.Cols)
	}
	for r := r0; r < r1; r++ {
		src := data[binaryHeaderSize+8*(r*cols+c0):]
		if !transpose {
			at := (dr+r-r0)*dst.Cols + dc
			decodeFloats(dst.Data[at:at+c1-c0], src)
			continue
		}
		at := dr*dst.Cols + dc + r - r0
		for c := 0; c < c1-c0; c++ {
			dst.Data[at+c*dst.Cols] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*c:]))
		}
	}
	return nil
}

// BinarySize returns the exact byte size of an r x c matrix in the binary
// format. Used for Table 3 style size reporting.
func BinarySize(r, c int) int64 { return 12 + 8*int64(r)*int64(c) }

// TextSizeEstimate estimates the byte size of an r x c random matrix in the
// text format, assuming the paper's ~20 characters per element (Table 3
// shows text ≈ 2.5x binary for double precision values).
func TextSizeEstimate(r, c int) int64 { return 20 * int64(r) * int64(c) }
