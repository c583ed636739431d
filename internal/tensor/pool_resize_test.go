package tensor

import (
	"runtime"
	"testing"
)

// TestSharedPoolTracksGOMAXPROCS is the regression test for the stale
// kernel-pool sizing bug: the shared pool used to be sized to GOMAXPROCS
// at first use and never resized, so a process that raised (or lowered)
// GOMAXPROCS after the first kernel dispatch kept the stale width
// forever. The pool must now follow GOMAXPROCS changes made after first
// use.
func TestSharedPoolTracksGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(2)
	// Force first use at width 2.
	ParallelFor(16, 0, func(lo, hi int) {})
	if got := sharedPool().workers; got != 2 {
		t.Fatalf("pool width after first use at GOMAXPROCS=2: %d", got)
	}

	// The historical bug: this change was never observed.
	runtime.GOMAXPROCS(4)
	if got := sharedPool().workers; got != 4 {
		t.Fatalf("pool width after GOMAXPROCS 2→4: %d, want 4", got)
	}
	// Shrinking must track too.
	runtime.GOMAXPROCS(1)
	if got := sharedPool().workers; got != 1 {
		t.Fatalf("pool width after GOMAXPROCS 4→1: %d, want 1", got)
	}
	runtime.GOMAXPROCS(3)

	// Work submitted across a resize must still be complete and correct:
	// sum [0,n) via disjoint per-chunk writes, then reduce.
	const n = 1 << 12
	marks := make([]int, n)
	ParallelFor(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			marks[i] = i
		}
	})
	sum := 0
	for _, v := range marks {
		sum += v
	}
	if want := n * (n - 1) / 2; sum != want {
		t.Fatalf("ParallelFor after resize: sum %d, want %d", sum, want)
	}
}

// TestMatMulBudgetedBitIdentical pins the budget-aware dispatch's
// determinism contract: for any workers budget (serial, uneven, larger
// than the pool), the budgeted kernels produce bit-identical results to
// the serial reference, on shapes small enough to stay serial and large
// enough to fan out.
func TestMatMulBudgetedBitIdentical(t *testing.T) {
	rng := NewRNG(7)
	shapes := []struct{ n, k, m int }{
		{8, 16, 8},     // tiny: always serial
		{64, 96, 128},  // mid: serial under the grain policy
		{128, 96, 512}, // large: crosses the fan-out cutoff
	}
	for _, sh := range shapes {
		a := RandN(sh.n, sh.k, 1, rng)
		b := RandN(sh.k, sh.m, 1, rng)
		bt := RandN(sh.m, sh.k, 1, rng)

		ref := New(sh.n, sh.m)
		matmulRows(a, b, ref, 0, sh.n)
		for _, workers := range []int{1, 2, 3, 5, 64} {
			out := New(sh.n, sh.m)
			MatMulIntoN(a, b, out, workers)
			assertBitEqual(t, "MatMulIntoN", ref, out, workers)

			taRef := New(sh.k, sh.m)
			transACols(a, out, taRef, 0, sh.k)
			ta := New(sh.k, sh.m)
			MatMulTransAIntoN(a, out, ta, workers)
			assertBitEqual(t, "MatMulTransAIntoN", taRef, ta, workers)

			tbRef := New(sh.n, sh.m)
			transBRows(a, bt, tbRef, 0, sh.n)
			tb := New(sh.n, sh.m)
			MatMulTransBIntoN(a, bt, tb, workers)
			assertBitEqual(t, "MatMulTransBIntoN", tbRef, tb, workers)
		}
	}
}

func assertBitEqual(t *testing.T, kernel string, want, got *Matrix, workers int) {
	t.Helper()
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s(workers=%d): element %d = %x, want %x",
				kernel, workers, i, got.Data[i], want.Data[i])
		}
	}
}

func TestWorkersFor(t *testing.T) {
	cases := []struct{ work, budget, want int }{
		{1, 8, 1},
		{parallelGrain - 1, 8, 1},
		{2*parallelGrain - 1, 8, 1}, // the historical serial threshold
		{2 * parallelGrain, 8, 2},
		{16 * parallelGrain, 8, 8}, // capped by the budget
		{16 * parallelGrain, 3, 3},
		{16 * parallelGrain, 1, 1},
	}
	for _, c := range cases {
		if got := WorkersFor(c.work, c.budget); got != c.want {
			t.Errorf("WorkersFor(%d, %d) = %d, want %d", c.work, c.budget, got, c.want)
		}
	}
	if got := WorkersFor(1, 0); got != 1 {
		t.Errorf("WorkersFor(1, 0) = %d, want 1", got)
	}
}
