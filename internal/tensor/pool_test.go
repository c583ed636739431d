package tensor

import (
	"math"
	"sync"
	"testing"
)

// refMatMulIKJ is the pre-unrolling scalar kernel (i-k-j order, zero-skip)
// kept as the bit-exactness reference for MatMul: the 4-wide unrolled
// axpy applies the same adds to each output element in the same order.
func refMatMulIKJ(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func refMatMulTransAIKJ(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func bitIdentical(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v (bits %x) want %v (bits %x)",
				name, i, got.Data[i], math.Float64bits(got.Data[i]),
				want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// dirty returns a rows×cols matrix filled with garbage, standing in for a
// reused pool buffer whose prior contents must not leak into results.
func dirty(rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = math.Inf(1)
	}
	return m
}

func randomShapes(rng *RNG, n int) [][3]int {
	shapes := make([][3]int, 0, n+4)
	// Edge shapes first: single row/col/inner, and non-multiple-of-4 dims
	// that exercise the unroll tails.
	shapes = append(shapes, [3]int{1, 1, 1}, [3]int{1, 7, 3}, [3]int{5, 1, 9}, [3]int{3, 4, 1})
	for i := 0; i < n; i++ {
		shapes = append(shapes, [3]int{
			1 + int(rng.Uint64()%33),
			1 + int(rng.Uint64()%33),
			1 + int(rng.Uint64()%33),
		})
	}
	return shapes
}

// sparsify zeroes a fraction of elements so the zero-skip path is hit.
func sparsify(m *Matrix, rng *RNG) {
	for i := range m.Data {
		if rng.Uint64()%4 == 0 {
			m.Data[i] = 0
		}
	}
}

func TestMatMulIntoBitIdenticalAcrossShapes(t *testing.T) {
	rng := NewRNG(101)
	for _, s := range randomShapes(rng, 40) {
		n, k, m := s[0], s[1], s[2]
		a := RandN(n, k, 1, rng)
		b := RandN(k, m, 1, rng)
		sparsify(a, rng)

		want := refMatMulIKJ(a, b)
		bitIdentical(t, "MatMul", MatMul(a, b), want)

		into := dirty(n, m)
		MatMulIntoN(a, b, into, 0)
		bitIdentical(t, "MatMulIntoN(dirty)", into, want)

		ar := NewArena()
		pooled := ar.GetNoZero(n, m)
		MatMulIntoN(a, b, pooled, 0)
		bitIdentical(t, "MatMulIntoN(arena)", pooled, want)
		// Reuse the same arena buffer for a second product.
		ar.Release()
		pooled = ar.GetNoZero(n, m)
		MatMulIntoN(a, b, pooled, 0)
		bitIdentical(t, "MatMulIntoN(arena reuse)", pooled, want)
	}
}

func TestMatMulTransAIntoBitIdenticalAcrossShapes(t *testing.T) {
	rng := NewRNG(102)
	for _, s := range randomShapes(rng, 40) {
		k, n, m := s[0], s[1], s[2]
		a := RandN(k, n, 1, rng) // batch×in
		b := RandN(k, m, 1, rng) // batch×out
		sparsify(a, rng)

		want := refMatMulTransAIKJ(a, b)
		bitIdentical(t, "MatMulTransA", MatMulTransA(a, b), want)

		into := dirty(n, m)
		MatMulTransAIntoN(a, b, into, 0)
		bitIdentical(t, "MatMulTransAIntoN(dirty)", into, want)
	}
}

func TestMatMulTransBIntoBitIdenticalAcrossShapes(t *testing.T) {
	rng := NewRNG(103)
	for _, s := range randomShapes(rng, 40) {
		n, k, m := s[0], s[1], s[2]
		a := RandN(n, k, 1, rng)
		b := RandN(m, k, 1, rng)

		want := MatMulTransB(a, b)
		into := dirty(n, m)
		MatMulTransBIntoN(a, b, into, 0)
		bitIdentical(t, "MatMulTransBIntoN(dirty)", into, want)

		// Cross-check values against the transpose-then-multiply route.
		ref := refMatMulIKJ(a, Transpose(b))
		if !Equal(into, ref, 1e-12) {
			t.Fatalf("MatMulTransB disagrees with a·(bᵀ) beyond tolerance")
		}
	}
}

// TestKernelPoolMatchesSerial forces the worker-pool path (bypassing the
// WorkersFor grain) and asserts it is bit-identical to the serial kernels
// for every matmul form, with four goroutines submitting to the shared
// pool at once so chunks of different products interleave and some run
// inline on a saturated queue.
func TestKernelPoolMatchesSerial(t *testing.T) {
	rng := NewRNG(105)
	type c struct {
		name string
		rows func(a, b, out *Matrix, lo, hi int)
		a, b *Matrix
		want *Matrix
		n    int
	}
	var cases []c
	for i := 0; i < 8; i++ {
		n := 3 + int(rng.Uint64()%60)
		k := 3 + int(rng.Uint64()%60)
		m := 3 + int(rng.Uint64()%60)
		a := RandN(n, k, 1, rng)
		b := RandN(k, m, 1, rng)
		g := RandN(n, m, 1, rng) // batch×out gradient for the TransA case
		sparsify(a, rng)
		cases = append(cases, c{"matmulRows", matmulRows, a, b, MatMul(a, b), n})
		cases = append(cases, c{"transACols", transACols, a, g, MatMulTransA(a, g), k})
		bt := Transpose(b)
		cases = append(cases, c{"transBRows", transBRows, a, bt, MatMulTransB(a, bt), n})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				for _, tc := range cases {
					out := dirty(tc.want.Rows, tc.want.Cols)
					ParallelFor(tc.n, 4, func(lo, hi int) { tc.rows(tc.a, tc.b, out, lo, hi) })
					for i := range out.Data {
						if math.Float64bits(out.Data[i]) != math.Float64bits(tc.want.Data[i]) {
							t.Errorf("pooled %s element %d = %v want %v", tc.name, i, out.Data[i], tc.want.Data[i])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestArenaGetZeroedAndReuse(t *testing.T) {
	a := NewArena()
	m := a.GetNoZero(4, 5)
	for i := range m.Data {
		m.Data[i] = 7
	}
	a.Release()
	base := MatrixAllocs()
	// Same bucket: must reuse the buffer (no new allocation) and Get must
	// zero it.
	z := a.Get(5, 4)
	if MatrixAllocs() != base {
		t.Fatalf("arena reuse allocated a new matrix")
	}
	if z.Rows != 5 || z.Cols != 4 {
		t.Fatalf("shape %dx%d want 5x4", z.Rows, z.Cols)
	}
	for i, v := range z.Data {
		if v != 0 {
			t.Fatalf("Get returned dirty element %d = %v", i, v)
		}
	}
	if len(a.out) != 1 {
		t.Fatalf("%d matrices out, want 1", len(a.out))
	}
	a.Drain()
	if len(a.out) != 0 {
		t.Fatalf("%d matrices out after Drain, want 0", len(a.out))
	}
}

func TestArenaNilSafe(t *testing.T) {
	var a *Arena
	m := a.Get(3, 3)
	if m.Rows != 3 || m.Cols != 3 {
		t.Fatalf("nil arena Get shape %dx%d", m.Rows, m.Cols)
	}
	a.Release()
	a.Drain()
}

func TestArenaSteadyStateAllocFree(t *testing.T) {
	a := NewArena()
	// Warm the free lists.
	for i := 0; i < 3; i++ {
		a.Get(16, 16)
		a.GetNoZero(8, 3)
		a.Release()
	}
	allocs := testing.AllocsPerRun(100, func() {
		a.Get(16, 16)
		a.GetNoZero(8, 3)
		a.Release()
	})
	if allocs != 0 {
		t.Fatalf("steady-state arena cycle allocates %v objects/run, want 0", allocs)
	}
}

func TestArenaZeroSizedMatrices(t *testing.T) {
	a := NewArena()
	m := a.Get(0, 7)
	if m.Rows != 0 || m.Cols != 7 || len(m.Data) != 0 {
		t.Fatalf("zero-row matrix misshaped: %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	a.Release()
}
