//go:build amd64 && !race

#include "textflag.h"

// The AVX2 inner kernels of the amd64 backend. Bit-exactness contract
// (see kernels_amd64.go): vectorize only across independent output
// elements, never use FMA, keep each dot accumulator as a single YMM
// register stepped four elements per iteration so lane l is exactly the
// reference accumulator s_l.
//
// All lengths and strides are in float64 elements. axpyAVX and dotAVX
// take multiples of 4 and leave tails to their Go wrappers; the row
// kernels run their own tails. Loads/stores are unaligned (VMOVUPD):
// slice bases are 8-byte aligned only.

// func axpyAVX(dst, src *float64, n int, s float64)
// dst[j] += s*src[j] for j in [0, n).
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD s+24(FP), Y0

axpy8:
	CMPQ    CX, $8
	JLT     axpy4
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JMP     axpy8

axpy4:
	CMPQ    CX, $4
	JLT     axpydone
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     axpy4

axpydone:
	VZEROUPPER
	RET

// func dotAVX(a, b *float64, n int, sums *float64)
// sums[l] = Σ_{k ≡ l mod 4, k < n} a[k]*b[k], ascending k per lane.
// Single accumulator register: lane l is the reference accumulator s_l.
TEXT ·dotAVX(SB), NOSPLIT, $0-32
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), DX
	MOVQ   n+16(FP), CX
	MOVQ   sums+24(FP), DI
	VXORPD Y0, Y0, Y0

dot4:
	CMPQ    CX, $4
	JLT     dotdone
	VMOVUPD (SI), Y1
	VMULPD  (DX), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JMP     dot4

dotdone:
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func affineRowAVX(y, x, w *float64, n, in, xs, ws int)
// y[j] += x[k*xs]*w[k*ws+j] for j < n, k < in ascending, skipping every k
// whose x[k*xs] is ±0; 1 ≤ in ≤ 256 and n ≥ 1. A first pass compacts the
// nonzero x into the frame (values at 0(SP), their w row offsets in bytes
// at 2048(SP)) without a branch, so ReLU-sparse inputs cost no
// mispredicts. The zero test is on the bits with the sign shifted out,
// which is exactly Go's `x != 0`: NaN and subnormals are nonzero. Then
// columns go in tiles of 16, 4 and 1, each tile's outputs held in
// registers across the whole compacted k sweep.
TEXT ·affineRowAVX(SB), $4096-56
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ in+32(FP), R8
	MOVQ xs+40(FP), BX
	SHLQ $3, BX        // x stride in bytes
	MOVQ ws+48(FP), R9
	SHLQ $3, R9        // w row stride in bytes
	LEAQ 0(SP), R13
	LEAQ 2048(SP), R12
	XORQ R10, R10      // nonzero count
	XORQ R11, R11      // k*ws in bytes

compact:
	MOVQ  (SI), AX
	MOVQ  AX, (R13)(R10*8)
	MOVQ  R11, (R12)(R10*8)
	SHLQ  $1, AX
	NEGQ  AX           // CF = (x != 0)
	ADCQ  $0, R10
	ADDQ  BX, SI
	ADDQ  R9, R11
	DECQ  R8
	JNZ   compact
	TESTQ R10, R10
	JZ    rowdone

row16:
	CMPQ    CX, $16
	JLT     row4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	XORQ    SI, SI

k16:
	VBROADCASTSD (R13)(SI*8), Y4
	MOVQ         (R12)(SI*8), AX
	VMULPD       (DX)(AX*1), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(DX)(AX*1), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(DX)(AX*1), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(DX)(AX*1), Y4, Y8
	VADDPD       Y8, Y3, Y3
	INCQ         SI
	CMPQ         SI, R10
	JLT          k16
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	VMOVUPD      Y3, 96(DI)
	ADDQ         $128, DI
	ADDQ         $128, DX
	SUBQ         $16, CX
	JMP          row16

row4:
	CMPQ    CX, $4
	JLT     row1
	VMOVUPD (DI), Y0
	XORQ    SI, SI

k4:
	VBROADCASTSD (R13)(SI*8), Y4
	MOVQ         (R12)(SI*8), AX
	VMULPD       (DX)(AX*1), Y4, Y5
	VADDPD       Y5, Y0, Y0
	INCQ         SI
	CMPQ         SI, R10
	JLT          k4
	VMOVUPD      Y0, (DI)
	ADDQ         $32, DI
	ADDQ         $32, DX
	SUBQ         $4, CX
	JMP          row4

row1:
	TESTQ  CX, CX
	JZ     rowdone
	VMOVSD (DI), X0
	XORQ   SI, SI

k1:
	VMOVSD (R13)(SI*8), X4
	MOVQ   (R12)(SI*8), AX
	VMULSD (DX)(AX*1), X4, X5
	VADDSD X5, X0, X0
	INCQ   SI
	CMPQ   SI, R10
	JLT    k1
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, DX
	DECQ   CX
	JMP    row1

rowdone:
	VZEROUPPER
	RET

// func dotRowsAVX(w, grad *float64, n, gs int, x, dx *float64, xs, rows int, relu bool)
// dx[i*xs] = Σ_j grad[i*gs+j]*w[j] for i < rows (1 ≤ rows ≤ 256, n ≥ 1),
// in the dot contract's order, except that with relu a row whose
// x[i*xs] is ±0 gets dx = +0 and no dot. Four batch rows share each load
// of w: YMM r is row r's accumulator (lane l = its s_l). After the vector
// body a 4×4 transpose puts s_l of the four rows in Y_l, so the n mod 4
// tail folds into s0 and ((s0+s1)+s2)+s3 reduces all four rows at once,
// lane by lane. A short last group points its missing rows at its first
// row and drops their results. Without relu the groups walk the batch at
// stride gs. With relu a first pass stores +0 to every dx and compacts
// the live rows into the frame (grad row offsets in bytes at 0(SP), dx
// offsets at 2048(SP)) without a branch, by the zero test affineRowAVX
// uses, and the groups walk that list. (`g` is a reserved
// pseudo-register, hence grad.)
TEXT ·dotRowsAVX(SB), $4096-65
	MOVQ w+0(FP), DX
	MOVQ grad+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ gs+24(FP), R8
	SHLQ $3, R8        // grad row stride in bytes
	MOVQ dx+40(FP), R12
	MOVQ xs+48(FP), R13
	SHLQ $3, R13       // x and dx stride in bytes
	MOVQ rows+56(FP), DI
	MOVQ CX, BX
	ANDQ $-4, BX       // n4: end of the vector body
	CMPB relu+64(FP), $0
	JNE  compact

group:
	LEAQ (SI)(R8*1), R9
	LEAQ (SI)(R8*2), R10
	LEAQ (R9)(R8*2), R11
	CMPQ DI, $4
	JGE  sweep
	MOVQ SI, R11
	CMPQ DI, $3
	JEQ  sweep
	MOVQ SI, R10
	CMPQ DI, $2
	JEQ  sweep
	MOVQ SI, R9
	JMP  sweep

compact:
	MOVQ x+32(FP), R9
	XORQ R10, R10      // live rows
	XORQ R11, R11      // i*gs in bytes
	XORQ BX, BX        // i*xs in bytes

compactrows:
	MOVQ  R11, 0(SP)(R10*8)
	MOVQ  BX, 2048(SP)(R10*8)
	MOVQ  $0, (R12)(BX*1)
	MOVQ  (R9)(BX*1), AX
	SHLQ  $1, AX
	NEGQ  AX           // CF = (x != 0)
	ADCQ  $0, R10
	ADDQ  R8, R11
	ADDQ  R13, BX
	DECQ  DI
	JNZ   compactrows
	MOVQ  R10, DI      // live rows left
	TESTQ DI, DI
	JZ    dotrowsdone
	MOVQ  CX, BX
	ANDQ  $-4, BX      // n4 again
	MOVQ  SI, R8       // grad base
	LEAQ  0(SP), R13   // cursor into both offset lists

listgroup:
	MOVQ (R13), SI
	ADDQ R8, SI
	MOVQ SI, R9
	MOVQ SI, R10
	MOVQ SI, R11
	CMPQ DI, $2
	JLT  sweep
	MOVQ 8(R13), R9
	ADDQ R8, R9
	CMPQ DI, $3
	JLT  sweep
	MOVQ 16(R13), R10
	ADDQ R8, R10
	CMPQ DI, $4
	JLT  sweep
	MOVQ 24(R13), R11
	ADDQ R8, R11

sweep:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX

dot4rows:
	CMPQ    AX, BX
	JGE     transpose
	VMOVUPD (DX)(AX*8), Y4
	VMULPD  (SI)(AX*8), Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  (R9)(AX*8), Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  (R10)(AX*8), Y4, Y7
	VADDPD  Y7, Y2, Y2
	VMULPD  (R11)(AX*8), Y4, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ    $4, AX
	JMP     dot4rows

transpose:
	VUNPCKLPD  Y1, Y0, Y4        // a0 b0 a2 b2
	VUNPCKHPD  Y1, Y0, Y5        // a1 b1 a3 b3
	VUNPCKLPD  Y3, Y2, Y6        // c0 d0 c2 d2
	VUNPCKHPD  Y3, Y2, Y7        // c1 d1 c3 d3
	VPERM2F128 $0x20, Y6, Y4, Y0 // s0 of rows 0..3
	VPERM2F128 $0x20, Y7, Y5, Y1 // s1
	VPERM2F128 $0x31, Y6, Y4, Y2 // s2
	VPERM2F128 $0x31, Y7, Y5, Y3 // s3

tail:
	CMPQ         AX, CX
	JGE          reduce
	VMOVSD       (SI)(AX*8), X4
	VMOVHPD      (R9)(AX*8), X4, X4
	VMOVSD       (R10)(AX*8), X5
	VMOVHPD      (R11)(AX*8), X5, X5
	VINSERTF128  $1, X5, Y4, Y4
	VBROADCASTSD (DX)(AX*8), Y5
	VMULPD       Y5, Y4, Y4
	VADDPD       Y4, Y0, Y0
	INCQ         AX
	JMP          tail

reduce:
	VADDPD       Y1, Y0, Y0
	VADDPD       Y2, Y0, Y0
	VADDPD       Y3, Y0, Y0
	CMPB         relu+64(FP), $0
	JNE          liststore
	VMOVSD       X0, (R12)
	CMPQ         DI, $1
	JEQ          dotrowsdone
	VMOVHPD      X0, (R12)(R13*1)
	LEAQ         (R12)(R13*2), R12
	VEXTRACTF128 $1, Y0, X0
	CMPQ         DI, $2
	JEQ          dotrowsdone
	VMOVSD       X0, (R12)
	CMPQ         DI, $3
	JEQ          dotrowsdone
	VMOVHPD      X0, (R12)(R13*1)
	LEAQ         (R12)(R13*2), R12
	LEAQ         (R10)(R8*2), SI     // first row of the next group
	SUBQ         $4, DI
	JNZ          group
	JMP          dotrowsdone

liststore:
	MOVQ         2048(R13), AX
	VMOVSD       X0, (R12)(AX*1)
	CMPQ         DI, $1
	JEQ          dotrowsdone
	MOVQ         2056(R13), AX
	VMOVHPD      X0, (R12)(AX*1)
	VEXTRACTF128 $1, Y0, X0
	CMPQ         DI, $2
	JEQ          dotrowsdone
	MOVQ         2064(R13), AX
	VMOVSD       X0, (R12)(AX*1)
	CMPQ         DI, $3
	JEQ          dotrowsdone
	MOVQ         2072(R13), AX
	VMOVHPD      X0, (R12)(AX*1)
	ADDQ         $32, R13
	SUBQ         $4, DI
	JNZ          listgroup

dotrowsdone:
	VZEROUPPER
	RET

// func adamRowAVX(p, m, v, grad *float64, n int, scale, b1, omb1, b2, omb2, lr, eps, c1, c2 float64)
// For j < n (a positive multiple of 4), four lanes at a time:
//   gv = g·scale
//   m  = b1·m + omb1·gv
//   v  = b2·v + (omb2·gv)·gv
//   p  = p − (lr·(m/c1)) / (√(v/c2) + eps)
// with omb1 = 1−b1, omb2 = 1−b2 and g = grad, which is only read.
TEXT ·adamRowAVX(SB), NOSPLIT, $0-112
	MOVQ         p+0(FP), DI
	MOVQ         m+8(FP), SI
	MOVQ         v+16(FP), DX
	MOVQ         grad+24(FP), R8
	MOVQ         n+32(FP), CX
	VBROADCASTSD scale+40(FP), Y0
	VBROADCASTSD b1+48(FP), Y1
	VBROADCASTSD omb1+56(FP), Y2
	VBROADCASTSD b2+64(FP), Y3
	VBROADCASTSD omb2+72(FP), Y4
	VBROADCASTSD lr+80(FP), Y5
	VBROADCASTSD eps+88(FP), Y6
	VBROADCASTSD c1+96(FP), Y7
	VBROADCASTSD c2+104(FP), Y8
	XORQ         AX, AX

adam4:
	VMULPD  (R8)(AX*8), Y0, Y9  // gv
	VMULPD  (SI)(AX*8), Y1, Y10 // b1·m
	VMULPD  Y9, Y2, Y11         // omb1·gv
	VADDPD  Y11, Y10, Y10       // m
	VMOVUPD Y10, (SI)(AX*8)
	VMULPD  Y9, Y4, Y11         // omb2·gv
	VMULPD  Y9, Y11, Y11        // (omb2·gv)·gv
	VMULPD  (DX)(AX*8), Y3, Y12 // b2·v
	VADDPD  Y11, Y12, Y12       // v
	VMOVUPD Y12, (DX)(AX*8)
	VDIVPD  Y7, Y10, Y10        // m/c1
	VMULPD  Y10, Y5, Y10        // lr·(m/c1)
	VDIVPD  Y8, Y12, Y12        // v/c2
	VSQRTPD Y12, Y12
	VADDPD  Y6, Y12, Y12        // √(v/c2) + eps
	VDIVPD  Y12, Y10, Y10
	VMOVUPD (DI)(AX*8), Y13
	VSUBPD  Y10, Y13, Y13       // p − step
	VMOVUPD Y13, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     adam4
	VZEROUPPER
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL  eaxIn+0(FP), AX
	MOVL  ecxIn+4(FP), CX
	CPUID
	MOVL  AX, eax+8(FP)
	MOVL  BX, ebx+12(FP)
	MOVL  CX, ecx+16(FP)
	MOVL  DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL   CX, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
