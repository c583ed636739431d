package nn

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"h2onas/internal/tensor"
	"h2onas/internal/tensor/tensortest"
)

// The masked affine stage against the per-(i,k) loop its row kernels
// replaced, written with nothing but tensor.Axpy and tensor.Dot (the old
// fused kernel was exactly a Dot chain plus an Axpy). Forward outputs,
// dX, dW, dB and the dirty-row worklists must match bit for bit.

// naiveForward returns x·W[:in,:out] (+ b[:out]) one Axpy per nonzero
// x_ik, k ascending.
func naiveForward(x, w *tensor.Matrix, b *Param, in, out int) *tensor.Matrix {
	y := tensor.New(x.Rows, out)
	for i := 0; i < x.Rows; i++ {
		yi := y.Row(i)
		if b != nil {
			copy(yi, b.Value.Data[:out])
		}
		for k, xv := range x.Row(i)[:in] {
			if xv != 0 {
				tensor.Axpy(yi, xv, w.Row(k)[:out])
			}
		}
	}
	return y
}

// naiveBackward accumulates dW (and db when b is set) for the active
// sub-matrix and returns dX: per W row k, per batch row i ascending, the
// dot g_i·W_k and, for a nonzero x_ik, dW_k += g_i·x_ik. Under reluInput
// a zero x_ik gives dX = 0 without the dot.
func naiveBackward(x, g *tensor.Matrix, w, b *Param, in, out int, reluInput bool) *tensor.Matrix {
	dx := tensor.New(x.Rows, in)
	for k := 0; k < in; k++ {
		wk, gwk := w.Value.Row(k)[:out], w.Grad.Row(k)[:out]
		for i := 0; i < x.Rows; i++ {
			gi := g.Row(i)[:out]
			switch xv := x.At(i, k); {
			case xv != 0:
				dx.Set(i, k, tensor.Dot(gi, wk))
				tensor.Axpy(gwk, xv, gi)
			case reluInput:
				dx.Set(i, k, 0)
			default:
				dx.Set(i, k, tensor.Dot(gi, wk))
			}
		}
	}
	if b != nil {
		for i := 0; i < g.Rows; i++ {
			tensor.Axpy(b.Grad.Data[:out], 1, g.Row(i)[:out])
		}
	}
	return dx
}

// refReLUInput returns a rows×cols input that is zero where a ReLU would
// have cut it, with every fifth zero a −0 (which must skip like +0).
func refReLUInput(rows, cols int, seed uint64) *tensor.Matrix {
	x := tensor.RandN(rows, cols, 1, tensor.NewRNG(seed))
	zeros := 0
	for i, v := range x.Data {
		if v < 0 {
			x.Data[i] = 0
			if zeros++; zeros%5 == 0 {
				x.Data[i] = math.Copysign(0, -1)
			}
		}
	}
	return x
}

// cloneParam copies a param's value and gradient into a fresh param the
// naive reference can accumulate into, its gradient dense.
func cloneParam(p *Param) *Param {
	return &Param{Name: p.Name, Value: tensortest.Clone(p.Value), Grad: gradMatrix(p)}
}

// affineRefShapes are the ViT FFN (128 token rows, 80→160), a DLRM
// top-MLP layer (batch 64, 136→64) and odd widths that leave every tile
// and tail residue of the row kernels in play. Each runs with the full
// matrix active and with a smaller active block, whose W rows are then
// strided wider than the active width.
var affineRefShapes = []struct{ rows, in, out int }{
	{128, 80, 160},
	{64, 136, 64},
	{9, 13, 37},
	{9, 37, 13},
}

func TestMaskedDenseMatchesNaiveReference(t *testing.T) {
	for _, s := range affineRefShapes {
		for _, pad := range []int{0, 5} {
			t.Run(fmt.Sprintf("%dx%dx%d+%d", s.rows, s.in, s.out, pad), func(t *testing.T) {
				l := NewMaskedDense(s.in+pad, s.out+pad, tensor.NewRNG(1))
				l.SetActive(s.in, s.out)
				w, b := cloneParam(l.W), cloneParam(l.B)
				x := refReLUInput(s.rows, s.in, 2)
				// Two passes: the second accumulates onto nonzero gradients.
				for pass := uint64(0); pass < 2; pass++ {
					g := tensor.RandN(s.rows, s.out, 1, tensor.NewRNG(3+pass))
					matBitEqual(t, "forward", l.Forward(x), naiveForward(x, w.Value, b, s.in, s.out))
					matBitEqual(t, "dX", l.Backward(g), naiveBackward(x, g, w, b, s.in, s.out, false))
					matBitEqual(t, "dW", gradMatrix(l.W), w.Grad)
					matBitEqual(t, "dB", gradMatrix(l.B), b.Grad)
				}
				if len(l.W.DirtyRows) != 0 {
					t.Fatalf("MaskedDense W is not row-tracked, yet DirtyRows = %v", l.W.DirtyRows)
				}
			})
		}
	}
}

func TestLowRankDenseMatchesNaiveReference(t *testing.T) {
	for _, s := range affineRefShapes {
		rank := min(s.in, s.out)
		for _, pad := range []int{0, 5} {
			for _, relu := range []bool{false, true} {
				t.Run(fmt.Sprintf("%dx%dx%d+%d/relu=%v", s.rows, s.in, s.out, pad, relu), func(t *testing.T) {
					l := NewLowRankDense(s.in+pad, s.out+pad, rank+pad, tensor.NewRNG(1))
					l.SetActive(s.in, s.out, rank)
					l.SetReLUInput(relu)
					u, v, b := cloneParam(l.U), cloneParam(l.V), cloneParam(l.B)
					x := refReLUInput(s.rows, s.in, 2)
					for pass := uint64(0); pass < 2; pass++ {
						g := tensor.RandN(s.rows, s.out, 1, tensor.NewRNG(3+pass))
						h := naiveForward(x, u.Value, nil, s.in, rank)
						matBitEqual(t, "forward", l.Forward(x), naiveForward(h, v.Value, b, rank, s.out))
						dh := naiveBackward(h, g, v, b, rank, s.out, false)
						matBitEqual(t, "dX", l.Backward(g), naiveBackward(x, dh, u, nil, s.in, rank, relu))
						matBitEqual(t, "dU", gradMatrix(l.U), u.Grad)
						matBitEqual(t, "dV", gradMatrix(l.V), v.Grad)
						matBitEqual(t, "dB", gradMatrix(l.B), b.Grad)
					}
					// Backward marks the active rows of each factor, ascending.
					for name, c := range map[string]struct {
						p *Param
						n int
					}{"U": {l.U, s.in}, "V": {l.V, rank}} {
						want := make([]int32, c.n)
						for r := range want {
							want[r] = int32(r)
						}
						if !slices.Equal(c.p.DirtyRows, want) {
							t.Fatalf("%s DirtyRows = %v, want %v", name, c.p.DirtyRows, want)
						}
					}
				})
			}
		}
	}
}
