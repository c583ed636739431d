package nn

import (
	"math"
	"testing"

	"h2onas/internal/tensor"
	"h2onas/internal/tensor/tensortest"
)

func TestMaskedLayerNormForwardNormalizes(t *testing.T) {
	ln := NewMaskedLayerNorm(4)
	x := &tensor.Matrix{Rows: 2, Cols: 4, Data: []float64{1, 2, 3, 4, -5, 0, 5, 10}}
	out := ln.Forward(x)
	for i := 0; i < 2; i++ {
		row := out.Row(i)
		var mean, varsum float64
		for _, v := range row {
			mean += v
		}
		mean /= 4
		for _, v := range row {
			varsum += (v - mean) * (v - mean)
		}
		if math.Abs(mean) > 1e-9 {
			t.Errorf("row %d mean = %v, want 0 (identity affine)", i, mean)
		}
		if math.Abs(varsum/4-1) > 1e-3 {
			t.Errorf("row %d variance = %v, want ~1", i, varsum/4)
		}
	}
}

func TestMaskedLayerNormActiveWidth(t *testing.T) {
	ln := NewMaskedLayerNorm(8)
	ln.SetActive(3)
	x := tensor.RandN(4, 3, 1, tensor.NewRNG(1))
	out := ln.Forward(x)
	if out.Cols != 3 {
		t.Fatalf("active-width output %d cols", out.Cols)
	}
	// Backward must not touch inactive affine params.
	grad := tensor.RandN(4, 3, 1, tensor.NewRNG(2))
	ZeroGrads(ln.Params())
	ln.Backward(grad)
	for j := 3; j < 8; j++ {
		if ln.Gamma.Grad.Data[j] != 0 || ln.Beta.Grad.Data[j] != 0 {
			t.Fatal("inactive layer-norm params received gradient")
		}
	}
}

func TestMaskedLayerNormGradCheck(t *testing.T) {
	rng := tensor.NewRNG(3)
	ln := NewMaskedLayerNorm(5)
	// Non-trivial affine so gamma gradients matter.
	for j := range ln.Gamma.Value.Data {
		ln.Gamma.Value.Data[j] = 0.5 + rng.Float64()
		ln.Beta.Value.Data[j] = rng.Norm() * 0.1
	}
	x := tensor.RandN(3, 5, 1, rng)
	y := tensor.RandN(3, 5, 1, rng)
	loss := MSE{}
	lossFn := func() float64 {
		out := ln.Forward(x)
		l, _ := loss.Eval(out, y)
		return l
	}
	ZeroGrads(ln.Params())
	out := ln.Forward(x)
	_, dout := loss.Eval(out, y)
	dx := ln.Backward(dout)
	for _, p := range ln.Params() {
		want := numericalGrad(p, lossFn)
		for i := range want.Data {
			if math.Abs(p.Grad.Data[i]-want.Data[i]) > 1e-5 {
				t.Fatalf("%s grad[%d]: analytic %v vs numeric %v", p.Name, i, p.Grad.Data[i], want.Data[i])
			}
		}
	}
	// Input gradient via finite differences.
	const eps = 1e-6
	for i := 0; i < len(x.Data); i += 4 {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		up := lossFn()
		x.Data[i] = orig - eps
		down := lossFn()
		x.Data[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-dx.Data[i]) > 1e-5 {
			t.Fatalf("dX[%d]: analytic %v vs numeric %v", i, dx.Data[i], num)
		}
	}
}

func TestMaskedAttentionShapes(t *testing.T) {
	rng := tensor.NewRNG(4)
	att := NewMaskedAttention(32, rng)
	att.HeadDim = 8
	att.SetActive(32, 4) // hidden 32, seq 4
	x := tensor.RandN(2*4, 32, 1, rng)
	out := att.Forward(x)
	if out.Rows != 8 || out.Cols != 32 {
		t.Fatalf("attention output %dx%d", out.Rows, out.Cols)
	}
}

func TestMaskedAttentionProbsAreDistributions(t *testing.T) {
	rng := tensor.NewRNG(5)
	att := NewMaskedAttention(16, rng)
	att.HeadDim = 8
	att.SetActive(16, 3)
	x := tensor.RandN(3, 16, 1, rng) // batch 1
	att.Forward(x)
	for _, p := range att.probs {
		for i := 0; i < p.Rows; i++ {
			var sum float64
			for _, v := range p.Row(i) {
				if v < 0 {
					t.Fatal("negative attention probability")
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("attention row sums to %v", sum)
			}
		}
	}
}

func TestMaskedAttentionGradCheck(t *testing.T) {
	rng := tensor.NewRNG(6)
	att := NewMaskedAttention(12, rng)
	att.HeadDim = 4
	att.SetActive(8, 3) // sub-width candidate, 2 heads
	const batch, seq = 2, 3
	x := tensor.RandN(batch*seq, 8, 0.5, rng)
	y := tensor.RandN(batch*seq, 8, 0.5, rng)
	loss := MSE{}
	lossFn := func() float64 {
		att.SetActive(8, seq)
		out := att.Forward(x)
		l, _ := loss.Eval(out, y)
		return l
	}
	ZeroGrads(att.Params())
	out := att.Forward(x)
	_, dout := loss.Eval(out, y)
	dx := att.Backward(dout)

	// Check a sample of touched parameters per projection.
	checked := 0
	for _, p := range att.Params() {
		if tensortest.MaxAbs(p.Grad) == 0 {
			continue
		}
		idx, best := 0, 0.0
		for i, g := range p.Grad.Data {
			if math.Abs(g) > best {
				idx, best = i, math.Abs(g)
			}
		}
		const eps = 1e-6
		orig := p.Value.Data[idx]
		p.Value.Data[idx] = orig + eps
		up := lossFn()
		p.Value.Data[idx] = orig - eps
		down := lossFn()
		p.Value.Data[idx] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-p.Grad.Data[idx]) > 1e-4*math.Max(1, math.Abs(num)) {
			t.Fatalf("%s grad[%d]: analytic %v vs numeric %v", p.Name, idx, p.Grad.Data[idx], num)
		}
		checked++
	}
	if checked < 4 {
		t.Fatalf("only %d projections received gradient", checked)
	}

	// Input gradient.
	const eps = 1e-6
	for i := 0; i < len(x.Data); i += 7 {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		up := lossFn()
		x.Data[i] = orig - eps
		down := lossFn()
		x.Data[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-dx.Data[i]) > 1e-4*math.Max(1, math.Abs(num)) {
			t.Fatalf("dX[%d]: analytic %v vs numeric %v", i, dx.Data[i], num)
		}
	}
}

func TestMaskedAttentionInactiveWeightsUntouched(t *testing.T) {
	rng := tensor.NewRNG(7)
	att := NewMaskedAttention(16, rng)
	att.HeadDim = 4
	att.SetActive(8, 2)
	x := tensor.RandN(2, 8, 1, rng)
	y := tensor.RandN(2, 8, 1, rng)
	ZeroGrads(att.Params())
	out := att.Forward(x)
	_, dout := MSE{}.Eval(out, y)
	att.Backward(dout)
	// Columns/rows beyond the active 8 must have no gradient.
	for _, w := range []*MaskedDense{att.Wq, att.Wk, att.Wv, att.Wo} {
		for i := 8; i < 16; i++ {
			for j := 0; j < 16; j++ {
				if w.W.Grad.At(i, j) != 0 || w.W.Grad.At(j, i) != 0 {
					t.Fatal("inactive attention weights received gradient")
				}
			}
		}
	}
}

func TestMaskedAttentionLearnsPositionRouting(t *testing.T) {
	// A task only attention can solve with this parameterization: output
	// at each position should copy the input at position 0. Train a
	// single attention layer and verify the loss drops substantially.
	rng := tensor.NewRNG(8)
	att := NewMaskedAttention(8, rng)
	att.HeadDim = 8
	const batch, seq = 16, 4
	opt := NewAdam(0.01)
	var first, last float64
	for step := 0; step < 300; step++ {
		x := tensor.RandN(batch*seq, 8, 1, rng)
		y := tensor.New(batch*seq, 8)
		for b := 0; b < batch; b++ {
			src := x.Row(b * seq) // position 0
			for t0 := 0; t0 < seq; t0++ {
				copy(y.Row(b*seq+t0), src)
			}
		}
		att.SetActive(8, seq)
		out := att.Forward(x)
		l, dout := MSE{}.Eval(out, y)
		if step == 0 {
			first = l
		}
		last = l
		ZeroGrads(att.Params())
		att.Backward(dout)
		opt.Step(att.Params())
	}
	if last > first*0.6 {
		t.Fatalf("attention failed to learn routing: loss %v → %v", first, last)
	}
}
