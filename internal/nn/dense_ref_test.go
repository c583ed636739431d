package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"h2onas/internal/tensor"
)

// TestDenseMatchesMatMulReference pins Dense to the formula it computed
// before it ran on the affine row kernels: y = MatMul(x, W) + b with the
// bias added last, dW = 0 + MatMulTransA(x, g), db = 0 + the column sums
// of g (batch rows ascending) and dX = MatMulTransB(g, W). Gradients start
// zeroed, as perfmodel's training loop leaves them before every Backward.
// Every seventh input is an exact zero (every fourteenth a −0), and the
// pool width — Dense's fan-out — runs at 1, 2 and 3.
func TestDenseMatchesMatMulReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	shapes := [][3]int{ // batch, in, out
		{256, 30, 128}, {256, 128, 128}, {256, 128, 2},
		{37, 512, 512}, {1, 30, 128}, {5, 7, 3},
	}
	for _, s := range shapes {
		batch, in, out := s[0], s[1], s[2]
		rng := tensor.NewRNG(uint64(batch*in + out))
		x := tensor.RandN(batch, in, 1, rng)
		for i := range x.Data {
			switch {
			case i%14 == 13:
				x.Data[i] = math.Copysign(0, -1)
			case i%7 == 6:
				x.Data[i] = 0
			}
		}
		g := tensor.RandN(batch, out, 1, rng)
		w := tensor.GlorotUniform(in, out, rng)
		b := tensor.RandN(1, out, 1, rng)

		wantY := tensor.New(batch, out)
		tensor.MatMulIntoN(x, w, wantY, 1)
		tensor.AddRowVector(wantY, b)
		dw := tensor.New(in, out)
		tensor.MatMulTransAIntoN(x, g, dw, 1)
		wantDW := tensor.New(in, out)
		tensor.AddInPlace(wantDW, dw)
		colSums := tensor.New(1, out)
		for i := 0; i < batch; i++ {
			for j, v := range g.Row(i) {
				colSums.Data[j] += v
			}
		}
		wantDB := tensor.New(1, out)
		tensor.AddInPlace(wantDB, colSums)
		wantDX := tensor.New(batch, in)
		tensor.MatMulTransBIntoN(g, w, wantDX, 1)

		for _, procs := range []int{1, 2, 3} {
			runtime.GOMAXPROCS(procs)
			for _, form := range []string{"NewDense", "literal"} {
				var d *Dense
				if form == "NewDense" {
					d = NewDense(in, out, tensor.NewRNG(1))
					copy(d.W.Value.Data, w.Data)
					copy(d.B.Value.Data, b.Data)
				} else {
					d = &Dense{W: NewParam("w", w.Clone()), B: NewParam("b", b.Clone())}
				}
				name := fmt.Sprintf("%dx%dx%d/procs=%d/%s", batch, in, out, procs, form)
				// Two passes: the second reuses the bound stage and the
				// buffers the first handed back.
				for pass := 0; pass < 2; pass++ {
					ZeroGrads(d.Params())
					y := d.Forward(x)
					matBitEqual(t, name+" y", y, wantY)
					matBitEqual(t, name+" dX", d.Backward(g), wantDX)
					matBitEqual(t, name+" y after Backward", y, wantY)
					matBitEqual(t, name+" dW", d.W.Grad, wantDW)
					matBitEqual(t, name+" db", d.B.Grad, wantDB)
				}
			}
		}
	}
}
