// Package wire is the one binary format of the repository: the
// little-endian field codec (Enc, Dec) and the magic/version/length/CRC32
// envelope (WriteFrame, ReadFrame) that search snapshots, strategy state
// blobs, the jobs journal and the shardrpc protocol are all written in.
// Those packages keep only their field lists; every bounds check, length
// cap and checksum lives here, once, behind one set of fuzz targets.
//
// The discipline: every float64 travels as its exact bit pattern, every
// sequence is length-prefixed, and the decoder validates each declared
// count against the bytes actually present before it allocates — so
// corrupt, truncated or hostile input produces an error, never a panic,
// a hang or an allocation larger than a constant multiple of the input.
//
// A vector is coded in bulk: the encoder reserves its bytes once and the
// decoder checks its count once, then each runs a tight loop over the
// elements. Streams that carry frame after frame need copy no byte twice
// and allocate nothing per frame. The sender reserves the header in front
// of the payload (Format.Reserve), encodes in place, seals (Format.Seal)
// and writes the frame in one Write. The receiver passes each payload
// ReadFrame returned back as the next read's buffer, and takes its large
// vectors as views (Dec.F64View, Dec.I32View). A view decodes straight
// into the storage that uses the values, and it is valid only until the
// next read into that buffer.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Enc appends little-endian fields to Buf; Dec reads the same sequence.
type Enc struct{ Buf []byte }

func (e *Enc) U8(v byte)     { e.Buf = append(e.Buf, v) }
func (e *Enc) U32(v uint32)  { e.Buf = binary.LittleEndian.AppendUint32(e.Buf, v) }
func (e *Enc) U64(v uint64)  { e.Buf = binary.LittleEndian.AppendUint64(e.Buf, v) }
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

func (e *Enc) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.Buf = append(e.Buf, b)
}

func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.Buf = append(e.Buf, s...)
}

func (e *Enc) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.Buf = append(e.Buf, b...)
}

// extend grows Buf by n bytes — one capacity check, at most one
// reallocation — and returns them for the caller to fill.
func (e *Enc) extend(n int) []byte {
	off := len(e.Buf)
	e.Buf = slices.Grow(e.Buf, n)[:off+n]
	return e.Buf[off:]
}

func (e *Enc) F64s(v []float64) {
	e.U32(uint32(len(v)))
	putF64s(e.extend(8*len(v)), v)
}

// F64Rows writes the listed rows of the row-major matrix data (cols
// wide) as one vector: the bytes F64s writes for those rows gathered in
// order, without gathering them first.
func (e *Enc) F64Rows(data []float64, cols int, rows []int32) {
	e.U32(uint32(len(rows) * cols))
	b := e.extend(8 * cols * len(rows))
	for k, r := range rows {
		putF64s(b[8*cols*k:], data[int(r)*cols:(int(r)+1)*cols])
	}
}

func putF64s(b []byte, v []float64) {
	b = b[:8*len(v)]
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

// Mat writes a row count followed by each row as F64s.
func (e *Enc) Mat(m [][]float64) {
	e.U32(uint32(len(m)))
	for _, row := range m {
		e.F64s(row)
	}
}

// Ints writes each element as a uint32.
func (e *Enc) Ints(v []int) {
	e.U32(uint32(len(v)))
	b := e.extend(4 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
}

func (e *Enc) I32s(v []int32) {
	e.U32(uint32(len(v)))
	b := e.extend(4 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
}

// Dec reads a payload with sticky errors and hard bounds: after the
// first failure every read returns a zero value, and Finish reports it.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over payload.
func NewDec(payload []byte) *Dec { return &Dec{buf: payload} }

// Remaining is the number of unread bytes.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Err is the first decode error so far, if any.
func (d *Dec) Err() error { return d.err }

// Failf records a decode error (the first one wins).
func (d *Dec) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Count reports whether n items of at least perItem bytes each can still
// be present, failing the decode otherwise. Callers check it before
// allocating anything sized by a declared count.
func (d *Dec) Count(n, perItem int, what string) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || n > d.Remaining()/perItem {
		d.Failf("%s count %d exceeds remaining payload", what, n)
		return false
	}
	return true
}

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining() {
		d.Failf("need %d bytes, %d remain", n, d.Remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *Dec) U8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

func (d *Dec) Bool() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		d.Failf("invalid boolean byte %d", b[0])
		return false
	}
	return b[0] == 1
}

func (d *Dec) Str() string {
	n := int(d.U32())
	return string(d.take(n))
}

// Bytes returns a copy of a length-prefixed byte string (nil when empty).
func (d *Dec) Bytes() []byte {
	n := int(d.U32())
	return append([]byte(nil), d.take(n)...)
}

// vec reads a vector's count and returns the bytes of its size-byte
// elements, checked present in full before anything is sized by the
// count; nil after a decode error.
func (d *Dec) vec(size int, what string) []byte {
	n := int(d.U32())
	if !d.Count(n, size, what) {
		return nil
	}
	return d.take(n * size)
}

func (d *Dec) F64s() []float64 {
	b := d.vec(8, "vector")
	if d.err != nil {
		return nil
	}
	v := make([]float64, len(b)/8)
	F64View{b}.CopyTo(v)
	return v
}

func (d *Dec) Mat() [][]float64 {
	n := int(d.U32())
	// Each row needs at least its 4-byte length prefix.
	if !d.Count(n, 4, "matrix row") {
		return nil
	}
	m := make([][]float64, n)
	for i := range m {
		m[i] = d.F64s()
		if d.err != nil {
			return nil
		}
	}
	return m
}

func (d *Dec) Ints() []int {
	b := d.vec(4, "int vector")
	if d.err != nil {
		return nil
	}
	return appendInts(make([]int, 0, len(b)/4), b)
}

// AppendInts reads an Ints vector onto the end of dst — a caller that
// carves many short vectors out of one reused backing array allocates
// nothing once the array is large enough.
func (d *Dec) AppendInts(dst []int) []int {
	return appendInts(dst, d.vec(4, "int vector"))
}

func appendInts(dst []int, b []byte) []int {
	off := len(dst)
	dst = slices.Grow(dst, len(b)/4)[:off+len(b)/4]
	v := dst[off:]
	for i := range v {
		v[i] = int(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return dst
}

// F64View reads an F64s vector without copying it out: the view holds
// the elements' little-endian bytes where they lie in the payload.
func (d *Dec) F64View() F64View { return F64View{d.vec(8, "vector")} }

// I32View reads an I32s vector without copying it out.
func (d *Dec) I32View() I32View { return I32View{d.vec(4, "row vector")} }

// F64View is a decoded float64 vector left in place: the exact bit
// patterns of its elements inside the payload it was read from. Reading
// one costs no allocation and no copy; CopyTo decodes the values once,
// straight into the storage that uses them.
//
// A view aliases its payload and is valid only while those bytes are:
// for a frame read into a reused buffer (ReadFrame), until the next read
// into that buffer.
type F64View struct{ b []byte }

// Len is the element count.
func (v F64View) Len() int { return len(v.b) / 8 }

// Slice is the view of elements [i, j).
func (v F64View) Slice(i, j int) F64View { return F64View{v.b[8*i : 8*j]} }

// CopyTo decodes min(len(dst), v.Len()) elements into dst and returns
// how many, like copy.
func (v F64View) CopyTo(dst []float64) int {
	n := min(len(dst), v.Len())
	b, dst := v.b[:8*n], dst[:n]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return n
}

// I32View is a decoded int32 vector left in place; see F64View for its
// lifetime.
type I32View struct{ b []byte }

// Len is the element count.
func (v I32View) Len() int { return len(v.b) / 4 }

// At decodes element i.
func (v I32View) At(i int) int32 { return int32(binary.LittleEndian.Uint32(v.b[4*i:])) }

// Finish reports the first decode error, or an error if unread bytes
// remain — every payload must be consumed exactly.
func (d *Dec) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%d unread bytes", len(d.buf)-d.off)
	}
	return nil
}
