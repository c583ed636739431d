package tensor

import (
	"fmt"
	"testing"
)

// Kernel benchmarks at the shapes the small-DLRM search step actually
// runs: batch 64 against top-MLP sized operands. Run with -benchmem to
// see the allocation profile; the *Into/arena variants must report
// 0 allocs/op in steady state.

func benchMatrices(rows, inner, cols int) (*Matrix, *Matrix) {
	rng := NewRNG(1)
	return RandN(rows, inner, 1, rng), RandN(inner, cols, 1, rng)
}

func BenchmarkMatMul(b *testing.B) {
	for _, shape := range [][3]int{{64, 160, 64}, {64, 64, 64}, {256, 256, 256}} {
		b.Run(fmt.Sprintf("%dx%dx%d", shape[0], shape[1], shape[2]), func(b *testing.B) {
			x, w := benchMatrices(shape[0], shape[1], shape[2])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = MatMul(x, w)
			}
		})
	}
}

func BenchmarkMatMulTransA(b *testing.B) {
	rng := NewRNG(2)
	x := RandN(64, 160, 1, rng) // batch×in
	g := RandN(64, 64, 1, rng)  // batch×out
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatMulTransA(x, g)
	}
}

func BenchmarkMatMulTransB(b *testing.B) {
	rng := NewRNG(2)
	g := RandN(64, 64, 1, rng)
	w := RandN(160, 64, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatMulTransB(g, w)
	}
}

// benchShapes are the allocation-free *Into benchmark shapes. The DLRM
// entries are the small-DLRM search step's real operand sizes (batch 64
// against bottom/top-MLP weights); the vit entries are ViT-Base token
// mixing shapes (196 patch tokens × 768 hidden), whose weight operand
// outgrows L2, so they show the flat sweep's memory-bound regime.
var benchShapes = []struct {
	name    string
	m, k, n int
}{
	{"dlrm/64x160x64", 64, 160, 64},
	{"dlrm/64x64x64", 64, 64, 64},
	{"dlrm/16x64x160", 16, 64, 160},
	{"vit/196x768x768", 196, 768, 768},
	{"vit/196x768x3072", 196, 768, 3072},
}

func BenchmarkMatMulInto(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			x, w := benchMatrices(s.m, s.k, s.n)
			out := New(s.m, s.n)
			b.SetBytes(int64(8 * (s.m*s.k + s.k*s.n + s.m*s.n))) // compulsory traffic: read A+B, write C
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulIntoN(x, w, out, 0)
			}
		})
	}
}

func BenchmarkMatMulTransAInto(b *testing.B) {
	// Aᵀ·B at backward shapes: x is batch×in, g is batch×out, the
	// product is the in×out weight gradient.
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			rng := NewRNG(2)
			x := RandN(s.m, s.k, 1, rng)
			g := RandN(s.m, s.n, 1, rng)
			out := New(s.k, s.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulTransAIntoN(x, g, out, 0)
			}
		})
	}
}

func BenchmarkMatMulTransBInto(b *testing.B) {
	// G·Wᵀ at backward shapes: g is batch×out, w is in×out, the product
	// is the batch×in input gradient.
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			rng := NewRNG(2)
			g := RandN(s.m, s.n, 1, rng)
			w := RandN(s.k, s.n, 1, rng)
			out := New(s.m, s.k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulTransBIntoN(g, w, out, 0)
			}
		})
	}
}

// BenchmarkAxpy measures the innermost kernel alone, at the row widths
// the masked/low-rank layers stream through it (DLRM MLP widths and
// ViT hidden widths). This is the kernel the AVX2 backend vectorizes, so
// each width runs twice in the same binary: the active backend (Axpy)
// and the scalar reference it must match bit for bit (axpyGeneric).
func BenchmarkAxpy(b *testing.B) {
	kernels := []struct {
		name string
		fn   func(dst []float64, s float64, src []float64)
	}{{KernelBackend(), Axpy}, {"reference", axpyGeneric}}
	for _, n := range []int{64, 160, 768, 3072} {
		for _, k := range kernels {
			b.Run(fmt.Sprintf("n%d/%s", n, k.name), func(b *testing.B) {
				rng := NewRNG(4)
				dst := make([]float64, n)
				src := make([]float64, n)
				for i := range src {
					src[i] = rng.Norm()
				}
				b.SetBytes(int64(8 * 3 * n)) // read dst+src, write dst
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.fn(dst, 0.0001, src)
				}
			})
		}
	}
}
