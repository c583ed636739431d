package nn

import (
	"fmt"
	"testing"

	"h2onas/internal/tensor"
)

// Benchmarks of the masked affine stage at the super-networks' real
// shapes: the ViT FFN (128 token rows, 80→160) and a DLRM top-MLP layer
// (batch 64, 136→64). Inputs are ReLU outputs — about half exactly zero —
// so the zero-skip paths run at their real rate. Buffers come from an
// arena, so steady state allocates nothing.

var affineBenchShapes = []struct {
	name          string
	rows, in, out int
}{
	{"vit/128x80x160", 128, 80, 160},
	{"dlrm/64x136x64", 64, 136, 64},
}

// benchReLUInput returns a rows×cols matrix of ReLU'd normal deviates.
func benchReLUInput(rows, cols int, seed uint64) *tensor.Matrix {
	x := tensor.RandN(rows, cols, 1, tensor.NewRNG(seed))
	for i, v := range x.Data {
		x.Data[i] = max(v, 0)
	}
	return x
}

// benchAffine times Forward, or Backward after one untimed Forward. The
// backward loop draws from a second arena, so releasing it each iteration
// never recycles an activation Forward cached; the gradients keep
// accumulating, which costs the same as accumulating into zero.
func benchAffine(b *testing.B, l layer, setArena func(*tensor.Arena), rows, in, out int, backward bool) {
	x := benchReLUInput(rows, in, 2)
	g := tensor.RandN(rows, out, 1, tensor.NewRNG(3))
	arena := tensor.NewArena()
	setArena(arena)
	if backward {
		l.Forward(x)
		arena = tensor.NewArena()
		setArena(arena)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.Release()
		if backward {
			l.Backward(g)
		} else {
			l.Forward(x)
		}
	}
}

func benchMaskedDense(b *testing.B, backward bool) {
	for _, s := range affineBenchShapes {
		b.Run(s.name, func(b *testing.B) {
			l := NewMaskedDense(s.in, s.out, tensor.NewRNG(1))
			benchAffine(b, l, func(a *tensor.Arena) { l.Arena = a }, s.rows, s.in, s.out, backward)
		})
	}
}

func BenchmarkMaskedDenseForward(b *testing.B)  { benchMaskedDense(b, false) }
func BenchmarkMaskedDenseBackward(b *testing.B) { benchMaskedDense(b, true) }

// benchReLU times the ReLU layer's Forward or Backward at the DLRM MLP
// activation shapes. About half the inputs are exactly zero and the rest
// positive, in random order, and the iterations rotate through eight
// such inputs: on one repeated input a branch predictor learns the
// live/dead pattern, which no real batch lets it do.
func benchReLU(b *testing.B, backward bool) {
	for _, s := range []struct {
		name       string
		rows, cols int
	}{{"dlrm/64x64", 64, 64}, {"dlrm/64x32", 64, 32}} {
		b.Run(s.name, func(b *testing.B) {
			var xs [8]*tensor.Matrix
			for i := range xs {
				xs[i] = benchReLUInput(s.rows, s.cols, uint64(2+i))
			}
			g := tensor.RandN(s.rows, s.cols, 1, tensor.NewRNG(1))
			l := NewActivationLayer(ReLU)
			l.Arena = tensor.NewArena()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Arena.Release()
				x := xs[i%len(xs)]
				if backward {
					l.input = x // what Forward(x) caches, without timing it
					l.Backward(g)
				} else {
					l.Forward(x)
				}
			}
		})
	}
}

func BenchmarkReLUForward(b *testing.B)  { benchReLU(b, false) }
func BenchmarkReLUBackward(b *testing.B) { benchReLU(b, true) }

// BenchmarkLowRankDenseBackward runs the factored layer at full rank
// (min(in, out)) with its input declared ReLU-fed, as the DLRM
// super-network wires it.
func BenchmarkLowRankDenseBackward(b *testing.B) {
	for _, s := range affineBenchShapes {
		b.Run(s.name, func(b *testing.B) {
			l := NewLowRankDense(s.in, s.out, min(s.in, s.out), tensor.NewRNG(1))
			l.SetReLUInput(true)
			benchAffine(b, l, func(a *tensor.Arena) { l.Arena = a }, s.rows, s.in, s.out, true)
		})
	}
}

// BenchmarkDenseStep times one training pass of the perf model's Dense
// layer — arena released, zeroed gradients, Forward, Backward — on a
// batch of 256 at the -scale quick (128×128) and -scale full (512×512)
// hidden widths. Dense fans out to the pool's width, so -cpu 1,2 sweeps
// it.
func BenchmarkDenseStep(b *testing.B) {
	for _, width := range []int{128, 512} {
		b.Run(fmt.Sprintf("256x%dx%d", width, width), func(b *testing.B) {
			l := NewDense(width, width, tensor.NewRNG(1))
			l.Arena = tensor.NewArena()
			x := benchReLUInput(256, width, 2)
			g := tensor.RandN(256, width, 1, tensor.NewRNG(3))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Arena.Release()
				ZeroGrads(l.Params())
				l.Forward(x)
				l.Backward(g)
			}
		})
	}
}
