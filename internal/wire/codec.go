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
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
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

func (e *Enc) F64s(v []float64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.F64(x)
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
	for _, x := range v {
		e.U32(uint32(x))
	}
}

func (e *Enc) I32s(v []int32) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.U32(uint32(x))
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

func (d *Dec) F64s() []float64 {
	n := int(d.U32())
	if !d.Count(n, 8, "vector") {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = d.F64()
	}
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
	n := int(d.U32())
	if !d.Count(n, 4, "int vector") {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = int(d.U32())
	}
	return v
}

func (d *Dec) I32s() []int32 {
	n := int(d.U32())
	if !d.Count(n, 4, "row vector") {
		return nil
	}
	v := make([]int32, n)
	for i := range v {
		v[i] = int32(d.U32())
	}
	return v
}

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
