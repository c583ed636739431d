package tensor

import "fmt"

// The matmul kernels dispatch through WorkersFor (pool.go): a kernel of
// W multiply-adds gets min(budget, W/parallelGrain) workers, so small
// products run single-threaded (fan-out costs more than it saves), big
// ones scale with their size, and the per-call workers budget caps the
// fan-out. Fanned-out products run their row loops as ParallelFor
// chunks; every output row is written by one chunk with the serial
// accumulation order, so the worker count never changes a bit.

// MatMulIntoN computes a·b into out, which must be a.Rows×b.Cols; prior
// contents of out are overwritten. out must not alias a or b.
//
// The kernel iterates in i-k-j order so the inner loop walks both the
// output row and the b row contiguously, and shards output rows across
// the shared kernel pool for large products. At most workers pool
// workers are used for the row fan-out (<= 0 means the shared pool's
// width). Results are bit-identical for every budget — output rows are
// computed independently, so chunk boundaries cannot change any bit.
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
		ParallelFor(a.Rows, w, func(lo, hi int) { matmulRows(a, b, out, lo, hi) })
	}
}

func matmulRows(a, b, out *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		clear(orow)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			axpyUnrolled(orow, av, b.Row(k))
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
		ParallelFor(a.Cols, w, func(lo, hi int) { transACols(a, b, out, lo, hi) })
	}
}

// transACols accumulates output rows [lo,hi) of aᵀ·b (i.e. columns
// [lo,hi) of a).
func transACols(a, b, out *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		clear(out.Row(i))
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
		ParallelFor(a.Rows, w, func(lo, hi int) { transBRows(a, b, out, lo, hi) })
	}
}

// transBRows computes output rows [lo,hi) of a·bᵀ as dot products.
func transBRows(a, b, out *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := range orow {
			orow[j] = dotUnrolled(arow, b.Row(j))
		}
	}
}
