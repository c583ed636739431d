package nn

import (
	"math"
	"testing"
	"testing/quick"

	"h2onas/internal/tensor"
	"h2onas/internal/tensor/tensortest"
)

func TestDenseForwardShapes(t *testing.T) {
	rng := tensor.NewRNG(1)
	d := NewDense(4, 7, rng)
	x := tensor.RandN(3, 4, 1, rng)
	y := d.Forward(x)
	if y.Rows != 3 || y.Cols != 7 {
		t.Fatalf("Dense output %dx%d, want 3x7", y.Rows, y.Cols)
	}
}

func TestMaskedDenseMatchesDenseAtFullSize(t *testing.T) {
	rng := tensor.NewRNG(2)
	md := NewMaskedDense(5, 4, rng)
	// A plain Dense built from the same weights.
	d := NewDense(5, 4, rng)
	copy(d.W.Value.Data, md.W.Value.Data)
	copy(d.B.Value.Data, md.B.Value.Data)
	x := tensor.RandN(6, 5, 1, rng)
	if !tensortest.Equal(md.Forward(x), d.Forward(x), 1e-12) {
		t.Fatal("full-size MaskedDense must equal Dense with same weights")
	}
}

func TestMaskedDenseSubMatrixMatchesSlicedDense(t *testing.T) {
	rng := tensor.NewRNG(3)
	md := NewMaskedDense(6, 5, rng)
	md.SetActive(4, 3)
	x := tensor.RandN(2, 4, 1, rng)
	got := md.Forward(x)
	// Explicit slice of the shared matrix.
	w := tensor.New(4, 3)
	for i := 0; i < 4; i++ {
		copy(w.Row(i), md.W.Value.Row(i)[:3])
	}
	want := tensor.New(2, 3)
	tensor.MatMulIntoN(x, w, want, 0)
	b := &tensor.Matrix{Rows: 1, Cols: 3, Data: md.B.Value.Data[:3]}
	tensor.AddRowVector(want, b)
	if !tensortest.Equal(got, want, 1e-12) {
		t.Fatal("sub-matrix MaskedDense must equal sliced Dense")
	}
}

func TestMaskedDenseSetActiveValidation(t *testing.T) {
	rng := tensor.NewRNG(1)
	md := NewMaskedDense(4, 4, rng)
	for _, c := range [][2]int{{0, 2}, {5, 2}, {2, 0}, {2, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetActive(%d,%d) should panic", c[0], c[1])
				}
			}()
			md.SetActive(c[0], c[1])
		}()
	}
}

func TestLowRankDenseFullRankClose(t *testing.T) {
	// With rank == min(in,out) the factorization can represent the same
	// family of maps; here we only verify shape plumbing and determinism.
	rng := tensor.NewRNG(4)
	lr := NewLowRankDense(5, 4, 4, rng)
	x := tensor.RandN(3, 5, 1, rng)
	y1 := lr.Forward(x)
	y2 := lr.Forward(x)
	if !tensortest.Equal(y1, y2, 0) {
		t.Fatal("LowRankDense.Forward must be deterministic")
	}
	if y1.Rows != 3 || y1.Cols != 4 {
		t.Fatalf("LowRankDense output %dx%d, want 3x4", y1.Rows, y1.Cols)
	}
}

func TestLowRankParamCountAdvantage(t *testing.T) {
	// The whole point of low-rank factorization: fewer multiply-adds for
	// small rank. Verify the active parameter count shrinks with rank.
	rng := tensor.NewRNG(5)
	lr := NewLowRankDense(128, 128, 64, rng)
	active := func(rank int) int { return 128*rank + rank*128 }
	if active(16) >= 128*128 {
		t.Fatal("rank-16 factorization should use fewer parameters than dense")
	}
	_ = lr
}

func TestEmbeddingForwardPoolsMean(t *testing.T) {
	rng := tensor.NewRNG(6)
	emb := NewEmbedding(8, 3, rng)
	out := emb.Forward([][]int{{2, 4}})
	for j := 0; j < 3; j++ {
		want := (emb.Table.Value.At(2, j) + emb.Table.Value.At(4, j)) / 2
		if math.Abs(out.At(0, j)-want) > 1e-12 {
			t.Fatalf("mean pooling wrong at col %d", j)
		}
	}
}

func TestEmbeddingEmptyBagIsZero(t *testing.T) {
	rng := tensor.NewRNG(6)
	emb := NewEmbedding(8, 3, rng)
	out := emb.Forward([][]int{{}})
	for _, v := range out.Data {
		if v != 0 {
			t.Fatal("empty bag must embed to zero vector")
		}
	}
}

func TestEmbeddingVocabFolding(t *testing.T) {
	rng := tensor.NewRNG(7)
	emb := NewEmbedding(10, 2, rng)
	emb.SetActiveVocab(4)
	a := emb.Forward([][]int{{6}}) // 6 mod 4 == 2
	b := emb.Forward([][]int{{2}})
	if !tensortest.Equal(a, b, 0) {
		t.Fatal("vocab folding must map index 6 onto index 2 when vocab=4")
	}
}

func TestEmbeddingWidthMasking(t *testing.T) {
	rng := tensor.NewRNG(8)
	emb := NewEmbedding(5, 4, rng)
	emb.SetActiveWidth(2)
	out := emb.Forward([][]int{{1}})
	if out.Cols != 2 {
		t.Fatalf("active width 2 must produce 2 columns, got %d", out.Cols)
	}
	// First columns must be shared with the full-width view.
	if out.At(0, 0) != emb.Table.Value.At(1, 0) {
		t.Fatal("width masking must reuse the leading columns (fine-grained sharing)")
	}
}

func TestAdamFitsTinyScaleTargets(t *testing.T) {
	// Targets of scale 0.01 — hard for a fixed-step optimizer, routine for
	// Adam's per-parameter normalization.
	rng := tensor.NewRNG(10)
	model := chain{NewDense(2, 8, rng), NewActivationLayer(Tanh), NewDense(8, 1, rng)}
	opt := NewAdam(0.01)
	var first, loss float64
	for step := 0; step < 200; step++ {
		x := tensor.RandN(32, 2, 1, rng)
		y := tensor.New(32, 1)
		for i := 0; i < 32; i++ {
			row := x.Row(i)
			y.Data[i] = math.Sin(row[0]) * row[1] * 0.01
		}
		out := model.Forward(x)
		var dout *tensor.Matrix
		loss, dout = MSE{}.Eval(out, y)
		if step == 0 {
			first = loss
		}
		ZeroGrads(model.Params())
		model.Backward(dout)
		opt.Step(model.Params())
	}
	if loss > first/100 {
		t.Fatalf("Adam reduced the loss only from %v to %v in 200 steps", first, loss)
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("p", tensor.New(1, 3))
	p.Grad.Data[0], p.Grad.Data[1], p.Grad.Data[2] = 3, 4, 0 // norm 5
	pre := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v, want 5", pre)
	}
	post := math.Sqrt(p.Grad.Data[0]*p.Grad.Data[0] + p.Grad.Data[1]*p.Grad.Data[1])
	if math.Abs(post-1) > 1e-9 {
		t.Fatalf("post-clip norm = %v, want 1", post)
	}
	// No-op when within bounds.
	ClipGradNorm([]*Param{p}, 10)
	if math.Abs(p.Grad.Data[0]-0.6) > 1e-9 {
		t.Fatal("clip must not rescale gradients already within bounds")
	}
}

// softmax is SoftmaxInto into a fresh slice.
func softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	SoftmaxInto(logits, out)
	return out
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(a, b, c float64) bool {
		for _, v := range []float64{a, b, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 500 {
				return true // skip pathological inputs
			}
		}
		p := softmax([]float64{a, b, c})
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	a := softmax([]float64{1, 2, 3})
	b := softmax([]float64{101, 102, 103})
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatal("softmax must be shift-invariant")
		}
	}
}

func TestBCEWithLogitsMatchesDirectFormula(t *testing.T) {
	out := &tensor.Matrix{Rows: 2, Cols: 1, Data: []float64{0.7, -1.3}}
	y := &tensor.Matrix{Rows: 2, Cols: 1, Data: []float64{1, 0}}
	l, _ := BCEWithLogits{}.Eval(out, y)
	direct := -(math.Log(sigmoid(0.7)) + math.Log(1-sigmoid(-1.3))) / 2
	if math.Abs(l-direct) > 1e-9 {
		t.Fatalf("BCE = %v, direct = %v", l, direct)
	}
}

func TestBCEWithLogitsStableAtExtremes(t *testing.T) {
	out := &tensor.Matrix{Rows: 2, Cols: 1, Data: []float64{1000, -1000}}
	y := &tensor.Matrix{Rows: 2, Cols: 1, Data: []float64{1, 0}}
	l, grad := BCEWithLogits{}.Eval(out, y)
	if math.IsNaN(l) || math.IsInf(l, 0) {
		t.Fatalf("BCE loss unstable at extreme logits: %v", l)
	}
	for _, g := range grad.Data {
		if math.IsNaN(g) {
			t.Fatal("BCE grad NaN at extreme logits")
		}
	}
}
