package tensor

import "fmt"

// The matmul kernels dispatch through WorkersFor (pool.go): a kernel of
// W multiply-adds gets min(budget, W/parallelGrain) workers, so small
// products run single-threaded (fan-out costs more than it saves), big
// ones scale with their size, and the per-call workers budget — threaded
// down from the search's core-budget scheduler — caps the fan-out so
// concurrent shard workers stop oversubscribing the machine. The
// historical static parallelThreshold (serial below 1<<18 multiply-adds)
// is exactly the budget-aware policy's serial region.

// Cache-blocking parameters for the large-shape matmul paths, derived
// from the host cache model and the hwsim roofline in internal/tensor/tune
// (tune's test asserts the derivation still yields these values; the
// derivation itself is documented in docs/PERFORMANCE.md "Kernel tuning").
//
//   - blockK: k-panel height. A blockK×blockJ panel of b is re-read once
//     per output row sweep; blockK·blockJ·8 bytes ≤ L2/4 keeps it
//     L2-resident, and the roofline lower bound (operational intensity
//     ≥ the host ridge point) is already met at blockK ≥ 8.
//   - blockJ: j-panel width. An output-row segment plus a b-row segment
//     (2·blockJ·8 bytes) stay within half of L1d.
//
// Blocking engages only above blockMinElems — b (or the output panel)
// larger than half of L2 — because below that every operand is already
// cache-resident and the straight i-k-j sweep is optimal. The small-DLRM
// search step never crosses the threshold; ViT-scale and benchmark shapes
// do.
//
// Bit-identity: blocks walk k in ascending panels and each output element
// accumulates its k contributions in ascending order within a single
// chain seeded by the same zero/bias, so the blocked path is bit-identical
// to the unblocked reference (pinned by TestBlockedKernelsBitIdentical).
const (
	blockK        = 64
	blockJ        = 1024
	blockMinElems = 1 << 17 // float64 elements: 1 MB, half of L2
)

// MatMulBlockShape reports the cache-blocking parameters (k-panel height,
// j-panel width) the large-shape kernels use. internal/tensor/tune
// re-derives them from the hardware model; its test pins the agreement.
func MatMulBlockShape() (kc, jc int) { return blockK, blockJ }

// MatMulIntoN computes a·b into out, which must be a.Rows×b.Cols; prior
// contents of out are overwritten. out must not alias a or b.
//
// The kernel iterates in i-k-j order so the inner loop walks both the
// output row and the b row contiguously, shards output rows across the
// persistent worker pool for large products, and switches to a
// cache-blocked sweep (bit-identical; see blockK) when b outgrows L2.
// At most workers pool workers are used for the row fan-out (<= 0 means
// the shared pool's width). Results are bit-identical for every budget —
// output rows are computed independently, so chunk boundaries cannot
// change any bit.
func MatMulIntoN(a, b, out *Matrix, workers int) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dim mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulIntoN output %dx%d != %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	if w := WorkersFor(a.Rows*a.Cols*b.Cols, workers); w <= 1 {
		matmulRows(a, b, out, 0, a.Rows)
	} else {
		sharedPool().run(a.Rows, opMatMul, a, b, out, w)
	}
}

func matmulRows(a, b, out *Matrix, lo, hi int) {
	if b.Rows*b.Cols > blockMinElems {
		matmulRowsBlocked(a, b, out, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := range orow {
			orow[j] = 0
		}
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			axpyUnrolled(orow, av, brow)
		}
	}
}

// matmulRowsBlocked is matmulRows for b larger than L2: k is walked in
// ascending blockK panels and j in blockJ panels, so the active
// blockK×blockJ panel of b stays L2-resident across the row sweep instead
// of b being re-streamed from memory once per output row. Ascending k
// panels preserve each output element's accumulation order exactly.
func matmulRowsBlocked(a, b, out *Matrix, lo, hi int) {
	K := a.Cols
	N := b.Cols
	for i := lo; i < hi; i++ {
		orow := out.Row(i)
		for j := range orow {
			orow[j] = 0
		}
	}
	for k0 := 0; k0 < K; k0 += blockK {
		k1 := min(k0+blockK, K)
		for j0 := 0; j0 < N; j0 += blockJ {
			j1 := min(j0+blockJ, N)
			for i := lo; i < hi; i++ {
				arow := a.Row(i)
				orow := out.Row(i)[j0:j1]
				for k := k0; k < k1; k++ {
					av := arow[k]
					if av == 0 {
						continue
					}
					axpyUnrolled(orow, av, b.Row(k)[j0:j1])
				}
			}
		}
	}
}

// MatMulTransAIntoN computes aᵀ·b into out (a.Cols×b.Cols) without
// materializing the transpose; prior contents of out are overwritten.
// It is the weight-gradient kernel: dW = Xᵀ·dY. out must not alias a
// or b. workers bounds the fan-out (<= 0 means the shared pool's width);
// results are bit-identical for every budget.
func MatMulTransAIntoN(a, b, out *Matrix, workers int) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransA outer dim mismatch %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransAInto output %dx%d != %dx%d", out.Rows, out.Cols, a.Cols, b.Cols))
	}
	// out[i][j] = Σ_k a[k][i]·b[k][j]. Accumulate row-by-row of a/b so all
	// access is contiguous; output rows are partitioned across workers for
	// large products so no two workers share an output row.
	if w := WorkersFor(a.Rows*a.Cols*b.Cols, workers); w <= 1 {
		transACols(a, b, out, 0, a.Cols)
	} else {
		sharedPool().run(a.Cols, opMatMulTransA, a, b, out, w)
	}
}

// transACols accumulates output rows [lo,hi) of aᵀ·b (i.e. columns
// [lo,hi) of a).
func transACols(a, b, out *Matrix, lo, hi int) {
	if (hi-lo)*b.Cols > blockMinElems {
		transAColsBlocked(a, b, out, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		orow := out.Row(i)
		for j := range orow {
			orow[j] = 0
		}
	}
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i := lo; i < hi; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			axpyUnrolled(out.Row(i), av, brow)
		}
	}
}

// transAColsBlocked is transACols for output panels larger than L2: the
// unblocked form re-streams the whole (hi-lo)×N output panel once per k,
// which thrashes once it outgrows L2. Blocking j keeps the active
// (hi-lo)×blockJ output panel resident across the full k sweep, at the
// cost of re-streaming a (small, contiguous) slice of each b row per
// panel. k stays ascending inside each j panel, so per-element
// accumulation order is unchanged.
func transAColsBlocked(a, b, out *Matrix, lo, hi int) {
	N := b.Cols
	for i := lo; i < hi; i++ {
		orow := out.Row(i)
		for j := range orow {
			orow[j] = 0
		}
	}
	for j0 := 0; j0 < N; j0 += blockJ {
		j1 := min(j0+blockJ, N)
		for k := 0; k < a.Rows; k++ {
			arow := a.Row(k)
			brow := b.Row(k)[j0:j1]
			for i := lo; i < hi; i++ {
				av := arow[i]
				if av == 0 {
					continue
				}
				axpyUnrolled(out.Row(i)[j0:j1], av, brow)
			}
		}
	}
}

// MatMulTransBIntoN computes a·bᵀ into out (a.Rows×b.Rows) without
// materializing the transpose; prior contents of out are overwritten.
// It is the input-gradient kernel: dX = dY·Wᵀ. out must not alias a
// or b. workers bounds the fan-out (<= 0 means the shared pool's width);
// results are bit-identical for every budget.
func MatMulTransBIntoN(a, b, out *Matrix, workers int) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dim mismatch %dx%d · %dx%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransBInto output %dx%d != %dx%d", out.Rows, out.Cols, a.Rows, b.Rows))
	}
	if w := WorkersFor(a.Rows*a.Cols*b.Rows, workers); w <= 1 {
		transBRows(a, b, out, 0, a.Rows)
	} else {
		sharedPool().run(a.Rows, opMatMulTransB, a, b, out, w)
	}
}

// transBRows computes output rows [lo,hi) of a·bᵀ as dot products. When b
// outgrows L2 the j (b-row) loop is tiled so a panel of b rows is reused
// across every output row before moving on — each output element is still
// one dotUnrolled call, so blocking cannot change any bit.
func transBRows(a, b, out *Matrix, lo, hi int) {
	if b.Rows*b.Cols > blockMinElems && hi-lo > 1 {
		// Panel height: as many b rows as fit in half of L2.
		jb := max(1, blockMinElems/(2*b.Cols))
		for j0 := 0; j0 < b.Rows; j0 += jb {
			j1 := min(j0+jb, b.Rows)
			for i := lo; i < hi; i++ {
				arow := a.Row(i)
				orow := out.Row(i)
				for j := j0; j < j1; j++ {
					orow[j] = dotUnrolled(arow, b.Row(j))
				}
			}
		}
		return
	}
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			orow[j] = dotUnrolled(arow, b.Row(j))
		}
	}
}
