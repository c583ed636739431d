package tensor

import "math"

// The scalar reference kernels. These define the numeric contract of the
// whole system: every backend — the AVX2 assembly, the pass-through
// build, the parallel matmul shards — must produce results bit-identical
// to these loops, because the committed golden trajectories, checkpoint
// resume and multi-node determinism all pin the exact rounding sequence.
//
// The contract, per kernel:
//
//   - axpy: dst[j] += s·src[j]. Each element receives exactly one
//     round(mul) then one round(add); elements are independent, so any
//     vectorization across j is bit-identical by construction.
//   - dot: four parallel accumulators s0..s3 where s_l sums the elements
//     with index ≡ l (mod 4) in ascending order, the tail (indices ≥
//     len&^3) folds into s0 in ascending order, and the final reduction
//     is ((s0+s1)+s2)+s3. A vector backend must map lane l to s_l.
//   - fused axpy+dot: per element j, s_{j mod 4} += g[j]·w[j] and
//     gw[j] += g[j]·x. The two chains are independent per element, so a
//     backend may reorder between them but not within either.
//   - affine row (forward): one axpy per input k, in ascending k, for
//     every k whose x[k] != 0 — so ±0 skips and NaN does not. A backend
//     may keep the output row in registers across the k sweep; each
//     element still sees the same adds in the same order.
//   - affine gradient row (backward): per batch row, in ascending order,
//     a nonzero x takes the fused kernel, a zero x the dot alone, or a
//     stored +0 under reluInput.
//   - Adam row: per element, gv = g·scale, m = β₁·m + (1−β₁)·gv,
//     v = β₂·v + ((1−β₂)·gv)·gv, p −= (lr·(m/c₁)) / (√(v/c₂) + ε), each
//     operation rounded once in exactly that order. Elements are
//     independent, and IEEE mul, add, sub, div and sqrt are correctly
//     rounded lane by lane, so any vectorization across j is bit-identical.
//     1−β₁ and 1−β₂ may be computed once: they are the same double.
//   - select (the ReLU layer in internal/nn): a kept value is copied as
//     its bits and a dropped one is +0, so a select by bit mask matches
//     an `if v > 0` select bit for bit, including the sign of zero. The
//     mask is all ones exactly when v > 0: ±0 and NaN are dropped.
//
// The generic bodies live here unconstrained so every build (including
// amd64, which falls back below its vector-length threshold or on CPUs
// without AVX2) links the same reference code.

// axpyGeneric computes dst[j] += s*src[j], 4 elements per iteration.
// Each dst element still receives exactly the same sequence of adds as
// the scalar loop, so results are bit-identical.
func axpyGeneric(dst []float64, s float64, src []float64) {
	n := len(dst)
	src = src[:n] // bounds-check elimination hint
	j := 0
	for ; j+3 < n; j += 4 {
		dst[j] += s * src[j]
		dst[j+1] += s * src[j+1]
		dst[j+2] += s * src[j+2]
		dst[j+3] += s * src[j+3]
	}
	for ; j < n; j++ {
		dst[j] += s * src[j]
	}
}

// dotGeneric returns Σ a[k]·b[k] using four parallel accumulators. The
// accumulation order is fixed (deterministic) but differs from a single
// running sum.
func dotGeneric(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	n := len(a)
	b = b[:n] // bounds-check elimination hint
	k := 0
	for ; k+3 < n; k += 4 {
		s0 += a[k] * b[k]
		s1 += a[k+1] * b[k+1]
		s2 += a[k+2] * b[k+2]
		s3 += a[k+3] * b[k+3]
	}
	for ; k < n; k++ {
		s0 += a[k] * b[k]
	}
	return s0 + s1 + s2 + s3
}

// fusedGeneric is the shared inner kernel of the masked/low-rank backward
// passes: it accumulates gw[j] += g[j]·x and returns Σ g[j]·w[j], 4-wide
// unrolled. The gradient accumulation order per element is unchanged from
// the scalar loop; the returned dot uses four parallel accumulators in a
// fixed (deterministic) order.
func fusedGeneric(g, w, gw []float64, x float64) float64 {
	n := len(g)
	w = w[:n]
	gw = gw[:n]
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+3 < n; j += 4 {
		g0, g1, g2, g3 := g[j], g[j+1], g[j+2], g[j+3]
		s0 += g0 * w[j]
		gw[j] += g0 * x
		s1 += g1 * w[j+1]
		gw[j+1] += g1 * x
		s2 += g2 * w[j+2]
		gw[j+2] += g2 * x
		s3 += g3 * w[j+3]
		gw[j+3] += g3 * x
	}
	for ; j < n; j++ {
		gv := g[j]
		s0 += gv * w[j]
		gw[j] += gv * x
	}
	return s0 + s1 + s2 + s3
}

// Axpy computes dst[j] += s·src[j] with per-element order preserved. It is
// the building block the hand-written layer kernels in internal/nn share
// with the matmul kernels here.
func Axpy(dst []float64, s float64, src []float64) { axpyUnrolled(dst, s, src) }

// Dot returns Σ a[k]·b[k] with four parallel accumulators (deterministic
// fixed order; see dotGeneric).
func Dot(a, b []float64) float64 { return dotUnrolled(a, b) }

// affineRowGeneric is the reference forward row: y[j] += x[k]·w[k·ws+j]
// for j < len(y), one axpy per nonzero x[k], k ascending.
func affineRowGeneric(y, x, w []float64, ws int) {
	n := len(y)
	for k, xv := range x {
		if xv != 0 {
			axpyGeneric(y, xv, w[k*ws:k*ws+n])
		}
	}
}

// affineGradRowGeneric is the reference backward row. For batch row
// i < rows, with x_i = x[i·xs] and g_i = g[i·gs : i·gs+len(w)], it sets
// dx[i·xs] = g_i·w and, when x_i != 0, accumulates gw += g_i·x_i. A zero
// x_i under reluInput stores +0 instead of computing the dot.
func affineGradRowGeneric(gw, w, g []float64, gs int, x, dx []float64, xs, rows int, reluInput bool) {
	n := len(w)
	for i := 0; i < rows; i++ {
		gi := g[i*gs : i*gs+n]
		switch xv := x[i*xs]; {
		case xv != 0:
			dx[i*xs] = fusedGeneric(gi, w, gw, xv)
		case reluInput:
			dx[i*xs] = 0
		default:
			// gw += g·0 adds exactly zero; only the dot remains.
			dx[i*xs] = dotGeneric(gi, w)
		}
	}
}

// adamRowGeneric is the reference Adam row: the per-element sequence the
// contract above spells out, over j < len(p).
func adamRowGeneric(p, m, v, g []float64, scale, b1, b2, lr, eps, c1, c2 float64) {
	n := len(p)
	m, v, g = m[:n], v[:n], g[:n] // bounds-check elimination hint
	for j := range p {
		gv := g[j] * scale
		m[j] = b1*m[j] + (1-b1)*gv
		v[j] = b2*v[j] + (1-b2)*gv*gv
		p[j] -= lr * (m[j] / c1) / (math.Sqrt(v[j]/c2) + eps)
	}
}

// AffineRow computes one output row of a masked affine layer in place:
// y[j] += Σ_k x[k]·w[k·ws+j] for j < len(y), where row k of w starts at
// k·ws. Each x[k] that is ±0 is skipped, so exact zeros cost nothing and
// a NaN or subnormal input still propagates; the k sweep is ascending,
// so every y[j] receives the reference sequence of rounded adds.
func AffineRow(y, x, w []float64, ws int) { affineRow(y, x, w, ws) }

// AffineGradRow runs the backward pass of a masked affine layer for one
// weight row w (gradient row gw, same length) across a batch. Batch row i
// reads g_i = g[i·gs : i·gs+len(w)] and x_i = x[i·xs], and writes
// dx[i·xs] = Σ_j g_i[j]·w[j] (the dot order of Dot); when x_i != 0 it
// also accumulates gw += g_i·x_i, batch rows ascending. With reluInput a
// zero x_i gets dx[i·xs] = +0 in place of the dot: the caller asserts an
// upstream ReLU discards dX there.
func AffineGradRow(gw, w, g []float64, gs int, x, dx []float64, xs, rows int, reluInput bool) {
	affineGradRow(gw, w, g, gs, x, dx, xs, rows, reluInput)
}

// AdamRow applies one bias-corrected Adam update to the parameter row p
// with first and second moment rows m and v and gradient row g (all of
// len(p)): the gradient is scaled by scale, β₁ = b1 and β₂ = b2 decay the
// moments, c1 and c2 are the bias corrections 1−β₁ᵗ and 1−β₂ᵗ, and lr and
// eps are the step size and denominator floor. g is read, never written.
func AdamRow(p, m, v, g []float64, scale, b1, b2, lr, eps, c1, c2 float64) {
	adamRow(p, m, v, g, scale, b1, b2, lr, eps, c1, c2)
}
