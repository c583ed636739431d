package tensor

import (
	"fmt"
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
// (axpyUnrolled / dotUnrolled / affineRow / affineGradRow / adamRow)
// against the scalar reference bodies in kernels_generic.go, bit for bit
// — tolerance zero. On a race or non-amd64 build the dispatchers ARE the
// reference, so this passes trivially; on every other build it is the
// gate that proves the AVX2 assembly honors the numeric contract. Lengths
// cover both sides of the AVX dispatch threshold and every tail residue
// mod 4; row widths 1–160 cover every residue mod 16 (the forward tile)
// against k sweeps and batches of 1, 2, 17, 80 and 128 (and 300, past the
// 256-input chunk of one assembly call), with row strides wider than the
// active width; Adam rows run lengths 0–67; offsets 0–3 move every
// operand off 32-byte alignment; the specials pass feeds ±0, ±Inf, NaN
// and subnormals through every chain.
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
		for n := 1; n <= 160; n++ {
			for c, m := range []int{1, 2, 17, 80, 128, 300} {
				xcheckAffineRows(t, rng, n, m, (n+c)%4, (n+3*c)%5, specials)
			}
		}
	}
	xcheckAffineZeroRules(t)
	for _, specials := range []bool{false, true} {
		for n := 0; n <= 67; n++ {
			for off := 0; off < 4; off++ {
				xcheckAdamRow(t, rng, n, off, specials)
			}
		}
	}
}

// xcheckAdamRow cross-checks the Adam row kernel at length n against the
// reference for clip scales 1, 0.37 and 1e-3 and steps 1, 2 and 1000, so
// the bias corrections run from 0.1 and 0.001 to about 1. Each operand
// has four more elements after the active n, and whole backing arrays are
// compared, g included: the kernel must leave g and the padding alone.
// The second moment starts non-negative, as Adam keeps it.
func xcheckAdamRow(t *testing.T, rng *rand.Rand, n, off int, specials bool) {
	t.Helper()
	const b1, b2, lr, eps = 0.9, 0.999, 0.003, 1e-8
	for _, scale := range []float64{1, 0.37, 1e-3} {
		for _, step := range []float64{1, 2, 1000} {
			c1, c2 := 1-math.Pow(b1, step), 1-math.Pow(b2, step)
			var got, want [4][]float64 // p, m, v, g
			for i := range got {
				got[i] = xcheckOperand(rng, n+4, off, specials)
				if i == 2 {
					for j, x := range got[i] {
						got[i][j] = math.Abs(x)
					}
				}
				want[i] = xcheckClone(got[i], off)
			}
			adamRow(got[0][:n], got[1][:n], got[2][:n], got[3][:n], scale, b1, b2, lr, eps, c1, c2)
			adamRowGeneric(want[0][:n], want[1][:n], want[2][:n], want[3][:n], scale, b1, b2, lr, eps, c1, c2)
			for i, name := range []string{"p", "m", "v", "g"} {
				xcheckSame(t, fmt.Sprintf("adamRow n=%d off=%d scale=%v t=%v specials=%v: %s", n, off, scale, step, specials, name), got[i], want[i])
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
		g[n/2] = 0 // zero element flows through the dot chain
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
	}

	dg := dotUnrolled(g, w)
	dw := dotGeneric(g, w)
	if !sameFloat(dg, dw) {
		t.Fatalf("dot n=%d off=%d: %v (%016x) != %v (%016x)", n, off, dg, math.Float64bits(dg), dw, math.Float64bits(dw))
	}
}

// xcheckAffineRows cross-checks both affine row kernels at output width
// n against m inputs (forward) or m batch rows (backward), with row
// strides n+pad. Whole backing arrays are compared, so a store past the
// active width or between strided elements fails too. Inputs are laced
// with ±0 in about one element of three, like a ReLU output.
func xcheckAffineRows(t *testing.T, rng *rand.Rand, n, m, off, pad int, specials bool) {
	t.Helper()
	lace := func(v []float64) {
		for i := range v {
			switch rng.Intn(6) {
			case 0:
				v[i] = 0
			case 1:
				v[i] = math.Copysign(0, -1)
			}
		}
	}
	ws := n + pad
	w := xcheckOperand(rng, m*ws, off, specials)
	x := xcheckOperand(rng, m, off, specials)
	lace(x)
	yGot := xcheckOperand(rng, ws, off, specials)
	yWant := xcheckClone(yGot, off)
	affineRow(yGot[:n], x, w, ws)
	affineRowGeneric(yWant[:n], x, w, ws)
	xcheckSame(t, fmt.Sprintf("affineRow n=%d in=%d off=%d ws=%d: y", n, m, off, ws), yGot, yWant)

	xs := 1 + pad%3 // x and dx are a column of a batch×in matrix
	xc := xcheckOperand(rng, m*xs, off, specials)
	lace(xc)
	g := xcheckOperand(rng, m*ws, off, specials)
	for _, relu := range []bool{false, true} {
		gwGot := xcheckOperand(rng, ws, off, specials)
		gwWant := xcheckClone(gwGot, off)
		dxGot := xcheckOperand(rng, m*xs, off, specials)
		dxWant := xcheckClone(dxGot, off)
		affineGradRow(gwGot[:n], w[:n], g, ws, xc, dxGot, xs, m, relu)
		affineGradRowGeneric(gwWant[:n], w[:n], g, ws, xc, dxWant, xs, m, relu)
		name := fmt.Sprintf("affineGradRow n=%d rows=%d off=%d gs=%d xs=%d relu=%v", n, m, off, ws, xs, relu)
		xcheckSame(t, name+": gw", gwGot, gwWant)
		xcheckSame(t, name+": dx", dxGot, dxWant)
	}
}

func xcheckSame(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s elem %d: %v (%016x) != %v (%016x)", name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// xcheckAffineZeroRules pins the zero-skip rule the reference defines as
// x != 0 — ±0 skips, NaN and subnormals do not — on the active backend,
// where the cross-check above could only show agreement with the
// reference. Width 21 runs every forward tile (16, 4, 1) and both the
// vector body and the tail of the backward dot.
func xcheckAffineZeroRules(t *testing.T) {
	t.Helper()
	const n = 21
	nan, negZero, tiny := math.NaN(), math.Copysign(0, -1), math.SmallestNonzeroFloat64
	fill := func(v float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	for _, c := range []struct{ x, w, y float64 }{
		{0, nan, 0}, // skipped: the NaN weights never reach y
		{negZero, nan, 0},
		{nan, 1, nan},
		{tiny, 1, tiny},
	} {
		y := fill(0)
		AffineRow(y, []float64{c.x}, fill(c.w), n)
		xcheckSame(t, fmt.Sprintf("AffineRow x=%v w=%v", c.x, c.w), y, fill(c.y))
	}
	for _, c := range []struct {
		x, g   float64
		relu   bool
		gw, dx float64 // every gw element, starting from 0; dx[0]
	}{
		{0, nan, false, 0, nan}, // dot only: gw never sees the NaN gradient
		{negZero, nan, false, 0, nan},
		{negZero, nan, true, 0, 0}, // +0 stored, no dot
		{nan, 1, false, nan, n},
		{tiny, 1, false, tiny, n},
	} {
		gw, dx := fill(0), []float64{7}
		AffineGradRow(gw, fill(1), fill(c.g), n, []float64{c.x}, dx, 1, 1, c.relu)
		name := fmt.Sprintf("AffineGradRow x=%v g=%v relu=%v", c.x, c.g, c.relu)
		xcheckSame(t, name+": gw", gw, fill(c.gw))
		xcheckSame(t, name+": dx", dx, []float64{c.dx})
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
