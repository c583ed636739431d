package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
)

// specialBits are the float64 bit patterns a loop and a copy could most
// plausibly disagree on: signed zeros, infinities, NaNs with payloads and
// either sign (quiet and signalling), subnormals and the extremes.
var specialBits = []uint64{
	0, 1 << 63, // ±0
	0x7FF0000000000000, 0xFFF0000000000000, // ±Inf
	0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8DEADBEEF0001, // quiet NaNs
	0x7FF0000000000001, 0x7FF4000000000000, 0xFFF0000000000F00, // signalling NaNs
	1, 0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF, // subnormals
	0x0010000000000000, 0x7FEFFFFFFFFFFFFF, 0x3FF0000000000000,
}

// randomF64s is n floats of random bit patterns with the special ones
// laced in.
func randomF64s(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		bits := r.Uint64()
		if r.IntN(3) == 0 {
			bits = specialBits[r.IntN(len(specialBits))]
		}
		v[i] = math.Float64frombits(bits)
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if g, w := math.Float64bits(got[i]), math.Float64bits(want[i]); g != w {
			t.Fatalf("%s: element %d bits %#x, want %#x", what, i, g, w)
		}
	}
}

// canary fills a buffer with a pattern no codec writes by accident, so a
// write outside the target range shows as a byte difference.
func canary(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(0xA5 ^ i)
	}
	return b
}

func canaryF64s(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(0xDEAD0000BEEF0000 | uint64(i))
	}
	return v
}

// vectorLengths covers empty, short, every tail length and a few large
// vectors.
var vectorLengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 257, 1000}

// TestBulkCodecMatchesReference holds the copy codec to the per-element
// reference loops: the same bytes out of every encoder, the same bits
// out of every decoder, nothing written outside the target range, for
// random and special bit patterns, every length class, and source and
// destination offsets 0–7 (byte offsets into the payload, element offsets
// into the vector's backing array).
func TestBulkCodecMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(35, 8))
	for _, n := range vectorLengths {
		for off := 0; off < 8; off++ {
			backing := randomF64s(r, n+off+3)
			v := backing[off : off+n]

			// Encode: putF64s and the reference into payloads at byte
			// offset off, canaries around.
			got, want := canary(8*n+off+5), canary(8*n+off+5)
			putF64s(got[off:], v)
			putF64sRef(want[off:], v)
			if !bytes.Equal(got, want) {
				t.Fatalf("putF64s n=%d off=%d: bytes differ from the reference", n, off)
			}

			// Enc.F64s after off bytes already in the buffer.
			e := Enc{Buf: canary(off)}
			e.F64s(v)
			ref := binary.LittleEndian.AppendUint32(canary(off), uint32(n))
			ref = append(ref, want[off:off+8*n]...)
			if !bytes.Equal(e.Buf, ref) {
				t.Fatalf("Enc.F64s n=%d off=%d: bytes differ from the reference", n, off)
			}

			// Decode from byte offset off into element offset off.
			payload := want[off : off+8*n]
			dst, dstRef := canaryF64s(n+off+3), canaryF64s(n+off+3)
			getF64s(dst[off:off+n], payload)
			getF64sRef(dstRef[off:off+n], payload)
			sameBits(t, "getF64s", dst, dstRef)
			sameBits(t, "getF64s round trip", dst[off:off+n], v)

			// F64View.CopyTo into a shorter, an equal and a longer
			// destination.
			for _, m := range []int{max(n-1, 0), n, n + 2} {
				dst := canaryF64s(m + off + 1)
				if c := (F64View{payload}).CopyTo(dst[off : off+m]); c != min(m, n) {
					t.Fatalf("CopyTo n=%d into %d: copied %d", n, m, c)
				}
				wantDst := canaryF64s(m + off + 1)
				getF64sRef(wantDst[off:off+min(m, n)], payload)
				sameBits(t, "CopyTo", dst, wantDst)
			}

			// Dec.F64s at payload offset off.
			d := NewDec(append(canary(off), ref[off:]...))
			d.take(off)
			sameBits(t, "Dec.F64s", d.F64s(), v)
			if err := d.Finish(); err != nil {
				t.Fatalf("Dec.F64s n=%d off=%d: %v", n, off, err)
			}

			// I32s: random ints, including the extremes.
			ib := make([]int32, n+off)
			for i := range ib {
				ib[i] = int32(r.Uint32())
				if r.IntN(4) == 0 {
					ib[i] = []int32{0, -1, math.MinInt32, math.MaxInt32}[r.IntN(4)]
				}
			}
			iv := ib[off:]
			gotI, wantI := canary(4*n+off+3), canary(4*n+off+3)
			putI32s(gotI[off:], iv)
			putI32sRef(wantI[off:], iv)
			if !bytes.Equal(gotI, wantI) {
				t.Fatalf("putI32s n=%d off=%d: bytes differ from the reference", n, off)
			}
			ei := Enc{Buf: canary(off)}
			ei.I32s(iv)
			refI := append(binary.LittleEndian.AppendUint32(canary(off), uint32(n)), wantI[off:off+4*n]...)
			if !bytes.Equal(ei.Buf, refI) {
				t.Fatalf("Enc.I32s n=%d off=%d: bytes differ from the reference", n, off)
			}
			rows := NewDec(refI[off:]).I32View()
			for i, x := range iv {
				if rows.At(i) != x {
					t.Fatalf("I32s n=%d off=%d: element %d decoded %d, want %d", n, off, i, rows.At(i), x)
				}
			}
		}
	}
}

// refF64Rows is F64Rows spelled out with the reference loop, one row at a
// time.
func refF64Rows(buf []byte, data []float64, cols int, rows []int32) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rows)*cols))
	for _, r := range rows {
		b := make([]byte, 8*cols)
		putF64sRef(b, data[int(r)*cols:(int(r)+1)*cols])
		buf = append(buf, b...)
	}
	return buf
}

// TestF64RowsMatchesReference: the one-copy-per-row gather writes the
// reference's bytes for row lists in any order, with repeats, at the
// delta's real row widths (24, 72) and odd ones, after 0–7 bytes already
// in the buffer.
func TestF64RowsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(35, 9))
	for _, cols := range []int{1, 3, 8, 24, 72} {
		const nrows = 11
		data := randomF64s(r, nrows*cols)
		for _, rows := range [][]int32{nil, {0}, {nrows - 1, 0, 5}, {2, 2, 2}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}} {
			for off := 0; off < 8; off++ {
				e := Enc{Buf: canary(off)}
				e.F64Rows(data, cols, rows)
				if want := refF64Rows(canary(off), data, cols, rows); !bytes.Equal(e.Buf, want) {
					t.Fatalf("F64Rows cols=%d rows=%v off=%d: bytes differ from the reference", cols, rows, off)
				}
			}
		}
	}
}

// FuzzBulkCodec: any bytes, read from any offset as a float64 vector, an
// int32 vector and a row-major matrix, decode to the reference's bits and
// re-encode to exactly those bytes through the copy codec and the
// reference alike.
func FuzzBulkCodec(f *testing.F) {
	special := make([]byte, 8*len(specialBits))
	for i, b := range specialBits {
		binary.LittleEndian.PutUint64(special[8*i:], b)
	}
	f.Add(special, uint8(0), uint8(1))
	f.Add(append([]byte{7}, special...), uint8(1), uint8(3))
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add(canary(200), uint8(5), uint8(24))
	f.Fuzz(func(t *testing.T, data []byte, off, cols uint8) {
		o := min(int(off%8), len(data))
		src := data[o:]

		n := len(src) / 8
		v, vRef := make([]float64, n), make([]float64, n)
		getF64s(v, src)
		getF64sRef(vRef, src)
		sameBits(t, "getF64s", v, vRef)
		if c := (F64View{src[:8*n]}).CopyTo(v); c != n {
			t.Fatalf("CopyTo copied %d of %d", c, n)
		}
		sameBits(t, "CopyTo", v, vRef)
		enc, encRef := make([]byte, 8*n), make([]byte, 8*n)
		putF64s(enc, v)
		putF64sRef(encRef, v)
		if !bytes.Equal(enc, encRef) || !bytes.Equal(enc, src[:8*n]) {
			t.Fatal("putF64s does not re-encode the decoded bits exactly")
		}

		if c := int(cols%32) + 1; n >= c {
			nrows := n / c
			rows := make([]int32, 0, len(src)%7)
			for i := range cap(rows) {
				rows = append(rows, int32(int(src[i])%nrows))
			}
			e := Enc{}
			e.F64Rows(v, c, rows)
			if want := refF64Rows(nil, v, c, rows); !bytes.Equal(e.Buf, want) {
				t.Fatalf("F64Rows cols=%d rows=%v: bytes differ from the reference", c, rows)
			}
		}

		m := len(src) / 4
		iv := make([]int32, m)
		for i := range iv {
			iv[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
		}
		ienc, iencRef := make([]byte, 4*m), make([]byte, 4*m)
		putI32s(ienc, iv)
		putI32sRef(iencRef, iv)
		if !bytes.Equal(ienc, iencRef) || !bytes.Equal(ienc, src[:4*m]) {
			t.Fatal("putI32s does not re-encode the int32s exactly")
		}
	})
}
