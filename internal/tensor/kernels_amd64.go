//go:build amd64 && !race

package tensor

// amd64 backend: on a CPU with AVX2 the inner kernels run as hand-written
// assembly (kernels_amd64.s). The vectorization is bit-exact, not merely
// tolerance-close: it vectorizes only across independent output elements
// and never uses FMA, so every element receives exactly the reference
// sequence of round(mul)/round(add) operations documented in
// kernels_generic.go. Concretely:
//
//   - axpy: a 4-lane VMULPD+VADDPD per group of four elements performs,
//     per element, one rounded multiply and one rounded add — identical
//     to the scalar loop (Go never contracts mul+add to FMA on its own).
//   - dot: a single 4-lane accumulator register stepped 4 elements at a
//     time makes vector lane l exactly the reference accumulator s_l
//     (indices ≡ l mod 4, ascending). The tail folds into s0 and the sum
//     reduces as ((s0+s1)+s2)+s3, as the reference does. Two-register
//     unrolls of one dot would interleave lanes mod 8 and break the
//     mapping — do not "optimize" this without updating the contract.
//     Independent dots may run side by side, one register each.
//   - affine rows: the forward kernel first compacts the nonzero inputs,
//     then holds a tile of the output row in registers across the
//     ascending sweep of them — per element, the reference axpy
//     sequence. The backward runs the fused reference's two chains one
//     after the other over the batch: every dX dot, four batch rows per
//     load of w (under reluInput only the compacted rows with a nonzero
//     input), then the gradient row as a forward sweep over the batch.
//     The chains share no state, so splitting them moves no bit.
//   - Adam row: the reference sequence four elements at a time with
//     VMULPD, VADDPD, VSUBPD, VDIVPD and VSQRTPD in the reference's
//     operand order. Each is correctly rounded per lane, exactly as
//     MULSD/ADDSD/SUBSD/DIVSD and SQRTSD (math.Sqrt) are per element.
//
// Because the backend is bit-exact, the cross-check test asserts exact
// equality (tolerance zero), and the golden trajectories replay
// identically on either path; CI replays them on both (tier-1 here, the
// race job on the scalar loops).
//
// CPUs without AVX2 (or an OS that doesn't enable YMM state) fall back to
// the generic loops at runtime, as do Axpy/Dot vectors shorter than the
// dispatch threshold, where call overhead would exceed the vector win.
// Race builds exclude this file (see kernels_noasm.go).

// useAVX2 gates the assembly kernels on runtime CPU support: AVX2 plus
// OS-enabled YMM state (OSXSAVE + XCR0).
var useAVX2 = cpuSupportsAVX2()

// avxMinLen is the vector length below which Axpy/Dot dispatch stays on
// the generic loops: the wrapper + VZEROUPPER overhead needs a few groups
// of four to amortize.
const avxMinLen = 16

//go:noescape
func axpyAVX(dst, src *float64, n int, s float64)

//go:noescape
func dotAVX(a, b *float64, n int, sums *float64)

//go:noescape
func affineRowAVX(y, x, w *float64, n, in, xs, ws int)

//go:noescape
func dotRowsAVX(w, grad *float64, n, gs int, x, dx *float64, xs, rows int, relu bool)

//go:noescape
func adamRowAVX(p, m, v, grad *float64, n int, scale, b1, omb1, b2, omb2, lr, eps, c1, c2 float64)

//go:noescape
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

func cpuSupportsAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	// The OS must have enabled XMM (bit 1) and YMM (bit 2) state saving.
	xlo, _ := xgetbv0()
	if xlo&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(1<<5) != 0 // AVX2
}

func axpyUnrolled(dst []float64, s float64, src []float64) {
	n := len(dst)
	if !useAVX2 || n < avxMinLen {
		axpyGeneric(dst, s, src)
		return
	}
	src = src[:n]
	n4 := n &^ 3
	axpyAVX(&dst[0], &src[0], n4, s)
	for j := n4; j < n; j++ {
		dst[j] += s * src[j]
	}
}

func dotUnrolled(a, b []float64) float64 {
	n := len(a)
	if !useAVX2 || n < avxMinLen {
		return dotGeneric(a, b)
	}
	b = b[:n]
	n4 := n &^ 3
	var sums [4]float64
	dotAVX(&a[0], &b[0], n4, &sums[0])
	s0 := sums[0]
	for k := n4; k < n; k++ {
		s0 += a[k] * b[k]
	}
	return ((s0 + sums[1]) + sums[2]) + sums[3]
}

// The row kernels have no length threshold: one call covers a whole
// output row or weight row, so the call overhead is amortized over the
// k or batch sweep however narrow the row is. The slice expressions
// below bounds-check the last element the assembly touches.

func affineRow(y, x, w []float64, ws int) {
	n, in := len(y), len(x)
	if !useAVX2 || n == 0 || in == 0 {
		affineRowGeneric(y, x, w, ws)
		return
	}
	sweepRow(y, x, 1, w[:(in-1)*ws+n], ws, in)
}

// sweepChunk is the most inputs one affineRowAVX call, or batch rows one
// dotRowsAVX call, takes: the compaction buffers in their frames hold
// that many.
const sweepChunk = 256

// sweepRow runs y[j] += Σ x[k·xs]·w[k·ws+j] over k < in through
// affineRowAVX, in ascending chunks of k. The tile goes back to memory
// between chunks, which rounds nothing. Callers bounds-check x and w.
func sweepRow(y, x []float64, xs int, w []float64, ws, in int) {
	for k := 0; k < in; k += sweepChunk {
		affineRowAVX(&y[0], &x[k*xs], &w[k*ws], len(y), min(sweepChunk, in-k), xs, ws)
	}
}

// affineGradRow computes every dX dot first, then gw += Σ x_i·g_i as a
// forward row over the batch — gw in registers, batch rows ascending,
// zero x_i skipped. Under reluInput the zero inputs' rows are compacted
// out before the dots, so their +0 costs no dot.
func affineGradRow(gw, w, g []float64, gs int, x, dx []float64, xs, rows int, reluInput bool) {
	n := len(w)
	if !useAVX2 || n == 0 || rows == 0 {
		affineGradRowGeneric(gw, w, g, gs, x, dx, xs, rows, reluInput)
		return
	}
	gw = gw[:n]
	g = g[:(rows-1)*gs+n]
	x = x[:(rows-1)*xs+1]
	dx = dx[:(rows-1)*xs+1]
	for i := 0; i < rows; i += sweepChunk {
		dotRowsAVX(&w[0], &g[i*gs], n, gs, &x[i*xs], &dx[i*xs], xs, min(sweepChunk, rows-i), reluInput)
	}
	sweepRow(gw, x, xs, g, gs, rows)
}

// adamRow runs the vector body over the first len(p)&^3 elements and the
// reference loop over the rest. 1−β₁ and 1−β₂ are computed here once.
func adamRow(p, m, v, g []float64, scale, b1, b2, lr, eps, c1, c2 float64) {
	n := len(p)
	n4 := n &^ 3
	if !useAVX2 || n4 == 0 {
		adamRowGeneric(p, m, v, g, scale, b1, b2, lr, eps, c1, c2)
		return
	}
	m, v, g = m[:n], v[:n], g[:n]
	adamRowAVX(&p[0], &m[0], &v[0], &g[0], n4, scale, b1, 1-b1, b2, 1-b2, lr, eps, c1, c2)
	adamRowGeneric(p[n4:], m[n4:], v[n4:], g[n4:], scale, b1, b2, lr, eps, c1, c2)
}

// KernelBackend names the inner-kernel backend this process runs: "avx2"
// when the CPU supports it, "scalar" (the reference loops) otherwise.
func KernelBackend() string {
	if useAVX2 {
		return "avx2"
	}
	return "scalar"
}
