package nn

import (
	"math"
	"testing"

	"h2onas/internal/tensor"
)

// numericalGrad perturbs each element of p.Value and measures the change in
// lossFn, giving a finite-difference reference gradient.
func numericalGrad(p *Param, lossFn func() float64) *tensor.Matrix {
	const eps = 1e-6
	g := tensor.New(p.Value.Rows, p.Value.Cols)
	for i := range p.Value.Data {
		orig := p.Value.Data[i]
		p.Value.Data[i] = orig + eps
		up := lossFn()
		p.Value.Data[i] = orig - eps
		down := lossFn()
		p.Value.Data[i] = orig
		g.Data[i] = (up - down) / (2 * eps)
	}
	return g
}

// lossFn is what BCEWithLogits and MSE have in common.
type lossFn interface {
	Eval(output, target *tensor.Matrix) (float64, *tensor.Matrix)
}

// layer is one differentiable stage. Forward caches what Backward needs;
// Backward accumulates parameter gradients (into Params' Grad) and returns
// the gradient with respect to the layer input.
type layer interface {
	Forward(x *tensor.Matrix) *tensor.Matrix
	Backward(grad *tensor.Matrix) *tensor.Matrix
	Params() []*Param
}

// chain runs layers in order, the output of each feeding the next.
type chain []layer

func (c chain) Forward(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range c {
		x = l.Forward(x)
	}
	return x
}

func (c chain) Backward(grad *tensor.Matrix) *tensor.Matrix {
	for i := len(c) - 1; i >= 0; i-- {
		grad = c[i].Backward(grad)
	}
	return grad
}

func (c chain) Params() []*Param {
	var ps []*Param
	for _, l := range c {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// checkGrads compares analytic parameter gradients against finite
// differences for a model under a loss.
func checkGrads(t *testing.T, layers chain, loss lossFn, x, y *tensor.Matrix, tol float64) {
	t.Helper()
	lossFn := func() float64 {
		out := layers.Forward(x)
		l, _ := loss.Eval(out, y)
		return l
	}
	// One analytic pass.
	ZeroGrads(layers.Params())
	out := layers.Forward(x)
	_, dout := loss.Eval(out, y)
	layers.Backward(dout)
	for _, p := range layers.Params() {
		got := denseGrad(p)
		want := numericalGrad(p, lossFn)
		for i := range want.Data {
			diff := math.Abs(got[i] - want.Data[i])
			scale := math.Max(1, math.Abs(want.Data[i]))
			if diff/scale > tol {
				t.Fatalf("param %s grad[%d]: analytic %v vs numeric %v", p.Name, i, got[i], want.Data[i])
			}
		}
	}
}

func TestDenseGradCheck(t *testing.T) {
	rng := tensor.NewRNG(1)
	model := chain{NewDense(4, 3, rng), NewActivationLayer(Tanh), NewDense(3, 2, rng)}
	x := tensor.RandN(5, 4, 1, rng)
	y := tensor.RandN(5, 2, 1, rng)
	checkGrads(t, model, MSE{}, x, y, 1e-5)
}

func TestDenseGradCheckBCE(t *testing.T) {
	rng := tensor.NewRNG(2)
	model := chain{NewDense(6, 4, rng), NewActivationLayer(ReLU), NewDense(4, 1, rng)}
	x := tensor.RandN(8, 6, 1, rng)
	y := tensor.New(8, 1)
	for i := range y.Data {
		if rng.Float64() > 0.5 {
			y.Data[i] = 1
		}
	}
	checkGrads(t, model, BCEWithLogits{}, x, y, 1e-5)
}

func TestActivationGradChecks(t *testing.T) {
	acts := []Activation{Identity, ReLU, Swish, GeLU, SquaredReLU, Sigmoid, Tanh}
	for _, act := range acts {
		t.Run(act.String(), func(t *testing.T) {
			const eps = 1e-6
			for _, x := range []float64{-2.3, -0.7, 0.31, 1.9, 3.2} {
				num := (act.Apply(x+eps) - act.Apply(x-eps)) / (2 * eps)
				ana := act.Derivative(x)
				if math.Abs(num-ana) > 1e-5 {
					t.Errorf("%s'(%v): analytic %v vs numeric %v", act, x, ana, num)
				}
			}
		})
	}
}

func TestMaskedDenseGradCheckFullWidth(t *testing.T) {
	rng := tensor.NewRNG(3)
	md := NewMaskedDense(5, 4, rng)
	model := chain{md, NewActivationLayer(Swish)}
	x := tensor.RandN(6, 5, 1, rng)
	y := tensor.RandN(6, 4, 1, rng)
	checkGrads(t, model, MSE{}, x, y, 1e-5)
}

func TestMaskedDenseGradCheckSubMatrix(t *testing.T) {
	rng := tensor.NewRNG(4)
	md := NewMaskedDense(8, 6, rng)
	md.SetActive(5, 3)
	model := chain{md}
	x := tensor.RandN(4, 5, 1, rng)
	y := tensor.RandN(4, 3, 1, rng)
	checkGrads(t, model, MSE{}, x, y, 1e-5)
	// Inactive region must stay gradient-free.
	for i := 0; i < 8; i++ {
		for j := 0; j < 6; j++ {
			if i < 5 && j < 3 {
				continue
			}
			if g := md.W.Grad.At(i, j); g != 0 {
				t.Fatalf("inactive weight (%d,%d) received gradient %v", i, j, g)
			}
		}
	}
	for j := 3; j < 6; j++ {
		if g := md.B.Grad.Data[j]; g != 0 {
			t.Fatalf("inactive bias %d received gradient %v", j, g)
		}
	}
}

func TestLowRankDenseGradCheck(t *testing.T) {
	rng := tensor.NewRNG(5)
	lr := NewLowRankDense(6, 5, 4, rng)
	lr.SetActive(4, 3, 2)
	model := chain{lr, NewActivationLayer(GeLU)}
	x := tensor.RandN(3, 4, 1, rng)
	y := tensor.RandN(3, 3, 1, rng)
	checkGrads(t, model, MSE{}, x, y, 1e-5)
	// Inactive rank columns of U must stay gradient-free.
	for i := 0; i < 6; i++ {
		for j := 2; j < 4; j++ {
			if g := gradMatrix(lr.U).At(i, j); g != 0 {
				t.Fatalf("inactive U(%d,%d) received gradient %v", i, j, g)
			}
		}
	}
}

func TestEmbeddingGradCheck(t *testing.T) {
	rng := tensor.NewRNG(6)
	emb := NewEmbedding(10, 4, rng)
	emb.SetActiveWidth(3)
	indices := [][]int{{1, 2}, {7}, {3, 3, 9}}
	y := tensor.RandN(3, 3, 1, rng)
	loss := MSE{}
	lossFn := func() float64 {
		out := emb.Forward(indices)
		l, _ := loss.Eval(out, y)
		return l
	}
	ZeroGrads(emb.Params())
	out := emb.Forward(indices)
	_, dout := loss.Eval(out, y)
	emb.Backward(dout)
	got := gradMatrix(emb.Table)
	want := numericalGrad(emb.Table, lossFn)
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-5 {
			t.Fatalf("embedding grad[%d]: analytic %v vs numeric %v", i, got.Data[i], want.Data[i])
		}
	}
	// Inactive width columns of looked-up rows must stay gradient-free.
	if g := got.At(1, 3); g != 0 {
		t.Fatalf("inactive embedding column received gradient %v", g)
	}
}
