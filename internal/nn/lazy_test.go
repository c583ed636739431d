package nn

import (
	"math"
	"sync"
	"testing"

	"h2onas/internal/tensor"
)

// eagerTable is what a lazy table built from NewRNG(seed) must read as:
// the tensor.RandN fill NewEmbedding used to do up front.
func eagerTable(vocab, width int, seed uint64) *tensor.Matrix {
	return tensor.RandN(vocab, width, 1/math.Sqrt(float64(width)), tensor.NewRNG(seed))
}

func TestEmbeddingRowsInitializeOnFirstRead(t *testing.T) {
	rng := tensor.NewRNG(3)
	e := NewEmbedding(50, 6, rng)
	want := eagerTable(50, 6, 3)
	ref := tensor.NewRNG(3)
	tensor.RandN(50, 6, 1, ref)
	if rng.State() != ref.State() {
		t.Fatal("a lazy table left its generator somewhere an eager fill would not")
	}
	for _, v := range e.Table.Value.Data {
		if v != 0 {
			t.Fatal("a row was written before anything read it")
		}
	}
	out := e.Forward([][]int{{7}, {7, 12}})
	for j := 0; j < 6; j++ {
		if math.Float64bits(out.At(0, j)) != math.Float64bits(want.At(7, j)) {
			t.Fatalf("lookup of row 7 col %d = %v, eager table holds %v", j, out.At(0, j), want.At(7, j))
		}
	}
	for r := 0; r < 50; r++ {
		read := r == 7 || r == 12
		for j, v := range e.Table.Value.Row(r) {
			if read && math.Float64bits(v) != math.Float64bits(want.At(r, j)) || !read && v != 0 {
				t.Fatalf("row %d (read: %v) col %d = %v", r, read, j, v)
			}
		}
	}
	MaterializeAll(e.Params())
	matBitEqual(t, "materialized table", e.Table.Value, want)
}

// TestSharedLazyRowsConcurrentReaders reads one lazy table through
// several views at once, the way shard replicas do; every view must see
// the eager bits and each row is written once for all of them (run it
// under -race).
func TestSharedLazyRowsConcurrentReaders(t *testing.T) {
	const vocab, width, views = 300, 8, 4
	master := NewEmbedding(vocab, width, tensor.NewRNG(5))
	want := eagerTable(vocab, width, 5)
	reps := make([]*Embedding, views)
	for i := range reps {
		reps[i] = NewEmbedding(vocab, width, tensor.ZeroRNG())
		ShareValues(reps[i].Params(), master.Params())
	}
	var wg sync.WaitGroup
	for i, rep := range reps {
		wg.Add(1)
		go func(i int, rep *Embedding) {
			defer wg.Done()
			ids := tensor.NewRNG(uint64(i))
			bags := make([][]int, 64)
			for b := range bags {
				bags[b] = []int{ids.Intn(vocab), ids.Intn(vocab)}
			}
			out := rep.Forward(bags)
			for b, bag := range bags {
				for j := 0; j < width; j++ {
					ref := (want.At(bag[0], j) + want.At(bag[1], j)) / 2
					if math.Float64bits(out.At(b, j)) != math.Float64bits(ref) {
						t.Errorf("view %d bag %d col %d = %v, want %v", i, b, j, out.At(b, j), ref)
						return
					}
				}
			}
		}(i, rep)
	}
	wg.Wait()
	MaterializeAll(reps[0].Params())
	matBitEqual(t, "table after concurrent reads", master.Table.Value, want)
}

func TestImportMarksRestoredRowsWritten(t *testing.T) {
	restored := func(kind StateKind) *Embedding {
		e := NewEmbedding(10, 3, tensor.NewRNG(8))
		ps := ParamState{Kind: kind}
		n := 30
		if kind == SteppedRows {
			ps.Rows, n = []int32{2, 5}, 6
		}
		ps.W, ps.M, ps.V = make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range ps.W {
			ps.W[i] = 100 + float64(i)
		}
		if err := NewAdam(0.1).Import(e.Params(), AdamState{T: 1, Params: []ParamState{ps}}); err != nil {
			t.Fatal(err)
		}
		e.Forward([][]int{{2}, {5}, {9}})
		return e
	}
	want := eagerTable(10, 3, 8)

	rows := restored(SteppedRows).Table.Value
	for j := 0; j < 3; j++ {
		if rows.At(2, j) != 100+float64(j) || rows.At(5, j) != 103+float64(j) {
			t.Fatalf("a first read overwrote restored rows 2 and 5: %v, %v", rows.Row(2), rows.Row(5))
		}
		if math.Float64bits(rows.At(9, j)) != math.Float64bits(want.At(9, j)) {
			t.Fatalf("unrestored row 9 = %v, want its initialization %v", rows.Row(9), want.Row(9))
		}
	}
	whole := restored(Whole)
	MaterializeAll(whole.Params())
	for i, v := range whole.Table.Value.Data {
		if v != 100+float64(i) {
			t.Fatalf("value %d = %v after a Whole import, want %v", i, v, 100+float64(i))
		}
	}
}

// TestAdamStepAndExportMaterialize pins the whole-value readers: Adam.Step
// walks a stepped param whole and Export copies a Whole param, so both
// must see initialized rows, not zeros.
func TestAdamStepAndExportMaterialize(t *testing.T) {
	lazy, eager := NewEmbedding(20, 4, tensor.NewRNG(9)), NewEmbedding(20, 4, tensor.NewRNG(9))
	MaterializeAll(eager.Params())
	lo, eo := NewAdam(0.05), NewAdam(0.05)
	for _, e := range []*Embedding{lazy, eager} {
		e.Forward([][]int{{1}, {3}})
		e.Backward(tensor.RandN(2, 4, 1, tensor.NewRNG(10)))
	}
	lo.Step(lazy.Params())
	eo.Step(eager.Params())
	matBitEqual(t, "stepped table", lazy.Table.Value, eager.Table.Value)
	sameW := lo.Export(lazy.Params()).Params[0].W
	for i, v := range eo.Export(eager.Params()).Params[0].W {
		if math.Float64bits(sameW[i]) != math.Float64bits(v) {
			t.Fatalf("exported W[%d] = %v, eager %v", i, sameW[i], v)
		}
	}
}

// TestSpineWholeStepMaterializes steps every row of a lazy table through
// the spine — a gradient on rows nothing has read, the shape a dense wire
// patch gives a row-tracked param — next to an eager twin: the update
// must see initialized rows, and the export must carry the same bits.
func TestSpineWholeStepMaterializes(t *testing.T) {
	lazy, eager := NewEmbedding(12, 5, tensor.NewRNG(4)), NewEmbedding(12, 5, tensor.NewRNG(4))
	MaterializeAll(eager.Params())
	var exports []AdamState
	for _, e := range []*Embedding{lazy, eager} {
		g := tensor.RandN(12, 5, 1, tensor.NewRNG(6))
		for r := 0; r < 12; r++ {
			copy(e.Table.MarkRow(r), g.Row(r))
		}
		e.Table.Dirty = true
		opt := NewAdam(0.05)
		s := NewSpine(e.Params(), opt, 0)
		s.Reduce(nil)
		s.ClipStep()
		exports = append(exports, opt.Export(e.Params()))
	}
	matBitEqual(t, "whole-stepped table", lazy.Table.Value, eager.Table.Value)
	l, e := exports[0].Params[0], exports[1].Params[0]
	if l.Kind != SteppedRows || e.Kind != SteppedRows || len(l.Rows) != 12 {
		t.Fatalf("export kinds %d and %d over %d rows, want SteppedRows over 12", l.Kind, e.Kind, len(l.Rows))
	}
	for i := range e.W {
		if math.Float64bits(l.W[i]) != math.Float64bits(e.W[i]) {
			t.Fatalf("exported W[%d] = %v, eager %v", i, l.W[i], e.W[i])
		}
	}
}
