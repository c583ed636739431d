package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// xcheckSpecials are the IEEE-754 corner values the cross-check mixes
// into its operands: signed zeros, infinities, NaN, and subnormals at
// both ends of the subnormal range.
var xcheckSpecials = []float64{
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1),
	math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), // largest subnormal
}

// sameFloat is the contract's equality: identical bits, except that any
// NaN equals any NaN. x86 propagates the payload of whichever NaN operand
// comes first, and operand order is the compiler's choice on the scalar
// path, so payloads are outside the contract.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// xcheckOperand returns a length-n operand starting off elements into its
// backing array (so loads and stores are not 32-byte aligned), filled
// with normal deviates and, when specials is set, corner values in about
// one element of eight.
func xcheckOperand(rng *rand.Rand, n, off int, specials bool) []float64 {
	v := make([]float64, off+n)[off:]
	for i := range v {
		if specials && rng.Intn(8) == 0 {
			v[i] = xcheckSpecials[rng.Intn(len(xcheckSpecials))]
		} else {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// xcheckClone copies v to the same offset of a fresh backing array.
func xcheckClone(v []float64, off int) []float64 {
	c := make([]float64, off+len(v))[off:]
	copy(c, v)
	return c
}

// TestKernelBackendMatchesReference cross-checks the active inner kernels
// (axpyUnrolled / dotUnrolled / fusedAxpyDot) against the scalar
// reference bodies in kernels_generic.go, bit for bit — tolerance zero.
// On a race or non-amd64 build the dispatchers ARE the reference, so this
// passes trivially; on every other build it is the gate that proves the
// AVX2 assembly honors the numeric contract. Lengths cover both sides of
// the AVX dispatch threshold and every tail residue mod 4; offsets 0–3
// move every operand off 32-byte alignment; the specials pass feeds ±0,
// ±Inf, NaN and subnormals through every chain.
func TestKernelBackendMatchesReference(t *testing.T) {
	t.Logf("kernel backend: %s", KernelBackend())
	rng := rand.New(rand.NewSource(3))
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 18, 19, 31, 32, 63, 64, 100, 160, 257, 1024, 1023}
	for _, specials := range []bool{false, true} {
		for _, n := range lengths {
			for off := 0; off < 4; off++ {
				xcheckKernels(t, rng, n, off, specials)
			}
		}
	}
}

func xcheckKernels(t *testing.T, rng *rand.Rand, n, off int, specials bool) {
	t.Helper()
	src := xcheckOperand(rng, n, off, specials)
	g := xcheckOperand(rng, n, off, specials)
	w := xcheckOperand(rng, n, off, specials)
	if n > 2 {
		g[n/2] = 0 // zero element flows through both chains
	}
	scalars := []float64{rng.NormFloat64(), rng.NormFloat64()}
	if specials {
		scalars = append(scalars, xcheckSpecials...)
	}
	for _, s := range scalars {
		dstGot := xcheckOperand(rng, n, off, specials)
		dstWant := xcheckClone(dstGot, off)
		axpyUnrolled(dstGot, s, src)
		axpyGeneric(dstWant, s, src)
		for i := range dstGot {
			if !sameFloat(dstGot[i], dstWant[i]) {
				t.Fatalf("axpy n=%d off=%d s=%v elem %d: %v != %v", n, off, s, i, dstGot[i], dstWant[i])
			}
		}

		gwGot := xcheckOperand(rng, n, off, specials)
		gwWant := xcheckClone(gwGot, off)
		fg := fusedAxpyDot(g, w, gwGot, s)
		fw := fusedGeneric(g, w, gwWant, s)
		if !sameFloat(fg, fw) {
			t.Fatalf("fused dot n=%d off=%d x=%v: %v != %v", n, off, s, fg, fw)
		}
		for i := range gwGot {
			if !sameFloat(gwGot[i], gwWant[i]) {
				t.Fatalf("fused gw n=%d off=%d x=%v elem %d: %v != %v", n, off, s, i, gwGot[i], gwWant[i])
			}
		}
	}

	dg := dotUnrolled(g, w)
	dw := dotGeneric(g, w)
	if !sameFloat(dg, dw) {
		t.Fatalf("dot n=%d off=%d: %v (%016x) != %v (%016x)", n, off, dg, math.Float64bits(dg), dw, math.Float64bits(dw))
	}
}

// TestKernelBackendName pins the backend self-report to what the platform
// supports (wantKernelBackend is per build): a fast path that is silently
// disabled on a CPU that has it must be red, not slow. CI greps the log
// line for the backend each leg is meant to run.
func TestKernelBackendName(t *testing.T) {
	t.Logf("kernel backend: %s", KernelBackend())
	if got, want := KernelBackend(), wantKernelBackend(); got != want {
		t.Fatalf("kernel backend %q, this build on this CPU must run %q", got, want)
	}
}
