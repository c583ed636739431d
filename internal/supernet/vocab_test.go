package supernet

import (
	"fmt"
	"math"
	"testing"

	"h2onas/internal/datapipe"
	"h2onas/internal/nn"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

func newFine(seed uint64) (*space.DLRMSpace, *Supernet, *datapipe.Stream) {
	ds := space.NewDLRMSpace(space.SmallDLRMConfig())
	sn := NewWithOptions(ds, tensor.NewRNG(seed), Options{VocabSharing: FineVocab})
	stream := datapipe.NewStream(datapipe.CTRConfig{
		NumTables: ds.Config.NumTables,
		Vocab:     ds.Config.BaseVocab,
		NumDense:  ds.Config.NumDense,
	}, seed)
	return ds, sn, stream
}

func TestFineVocabSingleTablePerFeature(t *testing.T) {
	_, sn, _ := newFine(1)
	for tIdx, row := range sn.tables {
		if len(row) != 1 {
			t.Fatalf("feature %d has %d tables under fine sharing, want 1", tIdx, len(row))
		}
	}
	// And far fewer parameters than the coarse variant.
	ds := space.NewDLRMSpace(space.SmallDLRMConfig())
	coarse := New(ds, tensor.NewRNG(1))
	if len(sn.Params()) >= len(coarse.Params()) {
		t.Fatal("fine sharing must have fewer parameter tensors than coarse")
	}
}

func TestFineVocabForwardBackward(t *testing.T) {
	ds, sn, stream := newFine(2)
	rng := tensor.NewRNG(3)
	for trial := 0; trial < 15; trial++ {
		a := randomAssignment(ds, rng)
		b := stream.NextBatch(8)
		nn.ZeroGrads(sn.Params())
		loss, dout := sn.Loss(a, b)
		if math.IsNaN(loss) {
			t.Fatalf("trial %d: NaN loss", trial)
		}
		sn.Backward(dout)
		for _, p := range sn.Params() {
			for _, g := range p.Grad.Data {
				if math.IsNaN(g) || math.IsInf(g, 0) {
					t.Fatalf("trial %d: non-finite grad in %s", trial, p.Name)
				}
			}
		}
	}
}

func TestFineVocabFoldsIndices(t *testing.T) {
	ds, sn, stream := newFine(4)
	// A candidate at the smallest vocabulary: indices beyond it must fold
	// onto the leading rows, so rows past the active vocabulary of the
	// shared table receive no gradient from that candidate.
	a := ds.BaselineAssignment()
	for i := 0; i < ds.Config.NumTables; i++ {
		idx := ds.Space.Lookup(fmt.Sprintf("emb%d_vocab", i))
		a[idx] = 0 // 50% of baseline
	}
	ar := ds.Decode(a)
	smallVocab := ar.EmbVocabs[0]

	b := stream.NextBatch(32)
	nn.ZeroGrads(sn.Params())
	_, dout := sn.Loss(a, b)
	sn.Backward(dout)
	table := sn.tables[0][0].Table
	grad := denseGrad(table)
	for row := smallVocab; row < table.Value.Rows; row++ {
		for _, g := range grad[row*table.Value.Cols : (row+1)*table.Value.Cols] {
			if g != 0 {
				t.Fatalf("row %d beyond active vocab %d received gradient", row, smallVocab)
			}
		}
	}
}

func TestFineVocabReplicatePreservesMode(t *testing.T) {
	_, sn, stream := newFine(5)
	rep := sn.Replicate(tensor.NewRNG(6))
	for tIdx, row := range rep.tables {
		if len(row) != 1 {
			t.Fatalf("replica feature %d lost fine sharing", tIdx)
		}
	}
	// Values aliased, mode preserved, forward works.
	ds := rep.DS
	b := stream.NextBatch(4)
	logits := rep.Forward(ds.BaselineAssignment(), b)
	if logits.Rows != 4 {
		t.Fatal("replica forward broken")
	}
}

func TestFineVocabTrainsOnTask(t *testing.T) {
	if testing.Short() {
		t.Skip("an 80-step training run")
	}
	ds, sn, stream := newFine(7)
	a := ds.BaselineAssignment()
	opt := nn.NewAdam(0.003)
	before := sn.Quality(a, stream.NextBatch(512))
	for step := 0; step < 80; step++ {
		b := stream.NextBatch(128)
		nn.ZeroGrads(sn.Params())
		_, dout := sn.Loss(a, b)
		sn.Backward(dout)
		nn.ClipGradNorm(sn.Params(), 10)
		opt.Step(sn.Params())
	}
	after := sn.Quality(a, stream.NextBatch(512))
	if after <= before+0.02 {
		t.Fatalf("fine-sharing supernet failed to train: %v → %v", before, after)
	}
}
