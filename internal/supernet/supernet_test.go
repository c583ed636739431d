package supernet

import (
	"math"
	"testing"

	"h2onas/internal/datapipe"
	"h2onas/internal/nn"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

func newSmall(t *testing.T, seed uint64) (*space.DLRMSpace, *Supernet, *datapipe.Stream) {
	t.Helper()
	ds := space.NewDLRMSpace(space.SmallDLRMConfig())
	sn := New(ds, tensor.NewRNG(seed))
	stream := datapipe.NewStream(datapipe.CTRConfig{
		NumTables: ds.Config.NumTables,
		Vocab:     ds.Config.BaseVocab,
		NumDense:  ds.Config.NumDense,
	}, seed)
	return ds, sn, stream
}

func randomAssignment(ds *space.DLRMSpace, rng *tensor.RNG) space.Assignment {
	a := make(space.Assignment, len(ds.Space.Decisions))
	for i, d := range ds.Space.Decisions {
		a[i] = rng.Intn(d.Arity())
	}
	return a
}

func TestBackwardTouchesOnlyActiveSubnetwork(t *testing.T) {
	ds, sn, stream := newSmall(t, 3)
	b := stream.NextBatch(8)
	// A candidate that removes table 0 (width 0).
	a := ds.BaselineAssignment()
	wIdx := ds.Space.Lookup("emb0_width")
	zero := -1
	for j, v := range ds.Space.Decisions[wIdx].Values {
		if v == 0 {
			zero = j
		}
	}
	if zero < 0 {
		t.Fatal("small config must allow width 0 (table removal)")
	}
	a[wIdx] = zero

	nn.ZeroGrads(sn.Params())
	loss, dout := sn.Loss(a, b)
	if math.IsNaN(loss) {
		t.Fatal("loss NaN")
	}
	sn.Backward(dout)
	// Every table-0 embedding must have zero gradient.
	for v, e := range sn.tables[0] {
		if tensor.MaxAbs(e.Table.Grad) != 0 {
			t.Fatalf("removed table 0 (vocab option %d) received gradient", v)
		}
	}
	// The selected vocab option of table 1 must have gradient; others not.
	choice := sn.vocabChoice(a, 1)
	if tensor.MaxAbs(sn.tables[1][choice].Table.Grad) == 0 {
		t.Fatal("active table 1 received no gradient")
	}
	for v, e := range sn.tables[1] {
		if v != choice && tensor.MaxAbs(e.Table.Grad) != 0 {
			t.Fatalf("inactive vocab option %d of table 1 received gradient (coarse sharing violated)", v)
		}
	}
}

func TestWiderEmbeddingsLearnMoreSignal(t *testing.T) {
	// The architecture/quality dependence the search exploits: on the
	// memorization-heavy task, candidates with wider embeddings should
	// reach better quality than candidates with all tables removed.
	ds, sn, stream := newSmall(t, 7)
	wide := ds.BaselineAssignment()
	narrow := append(space.Assignment(nil), wide...)
	for i := 0; i < ds.Config.NumTables; i++ {
		idx := ds.Space.Lookup("emb" + itoa(i) + "_width")
		for j, v := range ds.Space.Decisions[idx].Values {
			if v == 0 {
				narrow[idx] = j
			}
		}
	}
	opt := nn.NewAdam(0.003)
	train := func(a space.Assignment, steps int) float64 {
		for step := 0; step < steps; step++ {
			b := stream.NextBatch(128)
			nn.ZeroGrads(sn.Params())
			_, dout := sn.Loss(a, b)
			sn.Backward(dout)
			opt.Step(sn.Params())
		}
		return sn.Quality(a, stream.NextBatch(1024))
	}
	qWide := train(wide, 120)
	qNarrow := train(narrow, 120)
	if qWide <= qNarrow {
		t.Fatalf("wide embeddings (%v) must beat no embeddings (%v) on a memorization task", qWide, qNarrow)
	}
}

func TestReduceGradsAverages(t *testing.T) {
	ds, sn, stream := newSmall(t, 10)
	rng := tensor.NewRNG(11)
	r1, r2 := sn.Replicate(rng), sn.Replicate(rng)
	b := stream.NextBatch(8)
	a := ds.BaselineAssignment()
	for _, r := range []*Supernet{r1, r2} {
		_, dout := r.Loss(a, b)
		r.Backward(dout)
	}
	// Same batch and candidate → identical grads; the average equals each.
	want := r1.Params()[len(r1.Params())-1].Grad.Clone()
	nn.ReduceParamGrads(sn.Params(), [][]*nn.Param{r1.Params(), r2.Params()}, nil)
	got := sn.Params()[len(sn.Params())-1].Grad
	if !tensor.Equal(got, want, 1e-9) {
		t.Fatal("ReduceParamGrads must average replica gradients")
	}
	// Replicas are cleared for the next step.
	if tensor.MaxAbs(r1.Params()[0].Grad) != 0 {
		t.Fatal("replica grads must be cleared after reduction")
	}
}

func TestQualityOfUninformativePredictorIsZeroish(t *testing.T) {
	ds, sn, stream := newSmall(t, 12)
	b := stream.NextBatch(256)
	q := sn.Quality(ds.BaselineAssignment(), b)
	// Untrained network ≈ random logits near zero → quality near 0.
	if q > 0.3 || q < -1 {
		t.Fatalf("untrained quality = %v, want near 0", q)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// denseGrad returns p's gradient laid out like its value: a row-tracked
// param's packed slots (slot k holds row DirtyRows[k]) scattered to their
// rows, every other row zero.
func denseGrad(p *nn.Param) []float64 {
	if !p.RowSparse {
		return append([]float64(nil), p.Grad.Data...)
	}
	cols := p.Value.Cols
	g := make([]float64, len(p.Value.Data))
	for k, r := range p.DirtyRows {
		copy(g[int(r)*cols:(int(r)+1)*cols], p.Grad.Data[k*cols:(k+1)*cols])
	}
	return g
}
