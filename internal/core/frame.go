package core

// The checkpoint frame codec shared by batch (checkpoint.go) and stream
// (stream.go) frames.
//
// A frame is a fixed header — the 8-byte magic, a big-endian version and
// payload length, and the SHA-256 of the payload — then the payload: a
// fixed sequence of little-endian sections in the order its writer lays
// them down. A float is its IEEE-754 bits (math.Float64bits), so −0, ±Inf
// and every NaN payload round-trip; an offset or scalar counter is an
// int32; a flag is one byte, 0 or 1; every variable-length section starts
// with a uint32 element count. There are no field names or type
// descriptors: writer and reader share the order, and the version gates
// it.
//
// The writer appends the payload's sections to the frame's buffer, which
// grows as append grows it. The reader is bounds-checked with a sticky
// error: a short read, a count larger than the bytes left (checked before
// anything is allocated), a flag byte other than 0 or 1, or trailing bytes
// all fail with ErrBadCheckpoint, and every read after the first failure
// returns zero values without allocating.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// ckptHeaderLen = magic(8) + version(4) + payloadLen(8) + sha256(32).
const ckptHeaderLen = 8 + 4 + 8 + 32

// frameWriter appends one payload to b. A value that does not fit its
// wire width sets err, which the frame encoder returns.
type frameWriter struct {
	b   []byte
	err error
}

// extend appends n bytes to b and returns them, to be filled.
func (w *frameWriter) extend(n int) []byte {
	l := len(w.b)
	w.b = slices.Grow(w.b, n)[:l+n]
	return w.b[l:]
}

func (w *frameWriter) u8(v byte)     { w.b = append(w.b, v) }
func (w *frameWriter) u32(v uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *frameWriter) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *frameWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *frameWriter) flag(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// i32 narrows v to its int32 wire form.
func (w *frameWriter) i32(v int) uint32 {
	if int(int32(v)) != v && w.err == nil {
		w.err = fmt.Errorf("core: encode checkpoint: %d overflows an int32 field", v)
	}
	return uint32(int32(v))
}

// int writes v as an int32.
func (w *frameWriter) int(v int) { w.u32(w.i32(v)) }

// count writes a section's element count.
func (w *frameWriter) count(n int) {
	if uint64(n) > math.MaxUint32 && w.err == nil {
		w.err = fmt.Errorf("core: encode checkpoint: section of %d elements", n)
	}
	w.u32(uint32(n))
}

// raw writes p without a count.
func (w *frameWriter) raw(p []byte) { w.b = append(w.b, p...) }

func (w *frameWriter) str(s string) {
	w.count(len(s))
	w.b = append(w.b, s...)
}

// f64Vals and i32Vals write elements without a count, so one section can
// gather several slices (the anchors' entries, straight from their slots).
func (w *frameWriter) f64Vals(x []float64) {
	out := w.extend(8 * len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
}

func (w *frameWriter) i32Vals(x []int32) {
	out := w.extend(4 * len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
}

func (w *frameWriter) f64s(x []float64) {
	w.count(len(x))
	w.f64Vals(x)
}

func (w *frameWriter) i32s(x []int32) {
	w.count(len(x))
	w.i32Vals(x)
}

func (w *frameWriter) ints(x []int) {
	w.count(len(x))
	out := w.extend(4 * len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint32(out[4*i:], w.i32(v))
	}
}

func (w *frameWriter) flags(x []bool) {
	w.count(len(x))
	out := w.extend(len(x))
	for i, v := range x {
		if v {
			out[i] = 1
		} else {
			out[i] = 0
		}
	}
}

// encodeFrame writes a frame of the given kind into buf's storage, grown
// as the payload needs, and returns it: the header with its length and
// hash left blank, the sections write appends, then the header sealed.
// A nil buf gives the frame storage of its own.
func encodeFrame(buf []byte, magic string, version uint32, write func(*frameWriter)) ([]byte, error) {
	w := frameWriter{b: append(buf[:0], magic...)}
	w.b = binary.BigEndian.AppendUint32(w.b, version)
	w.extend(8 + sha256.Size)
	write(&w)
	if w.err != nil {
		return nil, w.err
	}
	out := w.b
	binary.BigEndian.PutUint64(out[12:], uint64(len(out)-ckptHeaderLen))
	sum := sha256.Sum256(out[ckptHeaderLen:])
	copy(out[20:], sum[:])
	return out, nil
}

// decodeFrame validates the frame's header (magic, version, length, hash)
// and returns a reader over its payload. Every failure wraps
// ErrBadCheckpoint.
func decodeFrame(magic string, version uint32, b []byte) (*frameReader, error) {
	if len(b) < ckptHeaderLen {
		return nil, fmt.Errorf("%w: truncated header (%d bytes)", ErrBadCheckpoint, len(b))
	}
	if string(b[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	if ver := binary.BigEndian.Uint32(b[8:]); ver != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadCheckpoint, ver)
	}
	plen := binary.BigEndian.Uint64(b[12:])
	if plen != uint64(len(b)-ckptHeaderLen) {
		return nil, fmt.Errorf("%w: payload length %d, have %d bytes", ErrBadCheckpoint, plen, len(b)-ckptHeaderLen)
	}
	payload := b[ckptHeaderLen:]
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], b[20:20+32]) {
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrBadCheckpoint)
	}
	return &frameReader{b: payload}, nil
}

// frameReader reads one payload back. After the first failure err holds
// it and every read returns a zero value.
type frameReader struct {
	b   []byte
	err error
}

func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrBadCheckpoint, fmt.Sprintf(format, args...))
	}
	r.b = nil
}

// take returns the next n bytes, or nil after a short read.
func (r *frameReader) take(n int) []byte {
	if len(r.b) < n {
		r.fail("short read: %d bytes left, want %d", len(r.b), n)
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

func (r *frameReader) u8() byte {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *frameReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *frameReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *frameReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *frameReader) int() int { return int(int32(r.u32())) }

func (r *frameReader) flag() bool {
	switch v := r.u8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("flag byte %d", v)
		return false
	}
}

// count reads a section's element count and checks that count elements
// of at least size bytes each fit in what is left, before any caller
// allocates for them.
func (r *frameReader) count(size int) int {
	n := uint64(r.u32())
	if n*uint64(size) > uint64(len(r.b)) {
		r.fail("section of %d elements overruns the %d bytes left", n, len(r.b))
		return 0
	}
	return int(n)
}

// raw reads p's length of bytes into p, without a count.
func (r *frameReader) raw(p []byte) { copy(p, r.take(len(p))) }

func (r *frameReader) str() string { return string(r.take(r.count(1))) }

// A section of zero elements reads back as a nil slice, as it was written
// from the sinks' never-appended slices.

func (r *frameReader) f64s() []float64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	p := r.take(8 * n)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out
}

func (r *frameReader) i32s() []int32 {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	p := r.take(4 * n)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return out
}

func (r *frameReader) ints() []int {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	p := r.take(4 * n)
	out := make([]int, n)
	for i := range out {
		out[i] = int(int32(binary.LittleEndian.Uint32(p[4*i:])))
	}
	return out
}

func (r *frameReader) flags() []bool {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = r.flag()
	}
	return out
}

// done reports the first failure, or trailing bytes after a complete
// payload.
func (r *frameReader) done() error {
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	return r.err
}
