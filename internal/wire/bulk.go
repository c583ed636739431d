package wire

import (
	"encoding/binary"
	"unsafe"
)

// The bulk vector codec. On the wire a []float64 is each element's
// IEEE-754 bit pattern in little-endian byte order, and a []int32 each
// element's two's complement, little-endian: on a little-endian host
// that is exactly the vector's own memory, so encoding and decoding a
// vector is one copy between the slice's bytes and the payload's, at
// memory speed, instead of a loop that shuffles eight bytes per element.
// The copy is the whole gain, and it is the only reason this package
// uses unsafe; this file is the only one that does.
//
// The contract:
//
//   - The byte views below alias a Go-allocated []float64/[]int32 and
//     only ever serve as one side of a copy that ends before the
//     function returns; no view escapes.
//   - Payload bytes are never reinterpreted as []float64 or []int32:
//     frame offsets are not 8-byte aligned. Decoding always copies into
//     the destination's byte view.
//   - Every length check (Dec.vec's count validation, Finish, the frame
//     CRC) runs exactly as before; the copy only replaces the loop.
//   - The per-element loops in codec.go (putF64sRef, getF64sRef,
//     putI32sRef) are the reference: a big-endian host runs them, and
//     the tests check the copy against them byte for byte.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f64Bytes is v's memory as bytes.
func f64Bytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// i32Bytes is v's memory as bytes.
func i32Bytes(v []int32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
}

// putF64s writes v's little-endian bit patterns into b[:8*len(v)].
func putF64s(b []byte, v []float64) {
	if littleEndian {
		copy(b[:8*len(v)], f64Bytes(v))
		return
	}
	putF64sRef(b, v)
}

// getF64s decodes len(dst) elements from b into dst.
func getF64s(dst []float64, b []byte) {
	if littleEndian {
		copy(f64Bytes(dst), b[:8*len(dst)])
		return
	}
	getF64sRef(dst, b)
}

// putI32s writes v's little-endian two's complement into b[:4*len(v)].
func putI32s(b []byte, v []int32) {
	if littleEndian {
		copy(b[:4*len(v)], i32Bytes(v))
		return
	}
	putI32sRef(b, v)
}
