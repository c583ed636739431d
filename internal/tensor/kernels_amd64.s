//go:build amd64 && !race

#include "textflag.h"

// The AVX2 inner kernels of the amd64 backend. Bit-exactness contract
// (see kernels_amd64.go): vectorize only across independent output
// elements, never use FMA, keep the dot/fused accumulator as a single
// YMM register stepped four elements per iteration so lane l is exactly
// the reference accumulator s_l.
//
// All lengths are in float64 elements and must be multiples of 4; the Go
// wrappers handle tails. Loads/stores are unaligned (VMOVUPD): slice
// bases are 8-byte aligned only.

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

// func fusedAVX(grad, w, gw *float64, n int, x float64, sums *float64)
// sums[l] accumulates grad[k]*w[k] over k ≡ l mod 4 (ascending), and
// gw[k] += grad[k]*x per element — the fused backward kernel. (The first
// argument is named grad because `g` is a reserved pseudo-register.)
TEXT ·fusedAVX(SB), NOSPLIT, $0-48
	MOVQ         grad+0(FP), SI
	MOVQ         w+8(FP), DX
	MOVQ         gw+16(FP), DI
	MOVQ         n+24(FP), CX
	VBROADCASTSD x+32(FP), Y3
	MOVQ         sums+40(FP), BX
	VXORPD       Y0, Y0, Y0

fused4:
	CMPQ    CX, $4
	JLT     fuseddone
	VMOVUPD (SI), Y1
	VMULPD  (DX), Y1, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  Y3, Y1, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     fused4

fuseddone:
	VMOVUPD Y0, (BX)
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
