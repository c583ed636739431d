package supernet

import (
	"math"
	"sync"
	"testing"

	"h2onas/internal/datapipe"
	"h2onas/internal/nn"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

// lazyTwin is one side of the lazy-vs-eager differential test: a master
// built from the shared seed, its shard replicas, and its optimizer.
type lazyTwin struct {
	master *Supernet
	reps   []*Supernet
	opt    *nn.Adam
	spine  *nn.Spine
}

const lazyTwinSeed = 21

// newLazyTwin builds a twin whose embedding rows initialize on first read
// or, when eager, all at construction.
func newLazyTwin(ds *space.DLRMSpace, shards int, eager bool) *lazyTwin {
	rng := tensor.NewRNG(lazyTwinSeed)
	tw := &lazyTwin{master: New(ds, rng), opt: nn.NewAdam(0.01)}
	if eager {
		nn.MaterializeAll(tw.master.Params())
	}
	for s := 0; s < shards; s++ {
		tw.reps = append(tw.reps, tw.master.Replicate(rng.Split()))
	}
	tw.spine = nn.NewSpine(tw.master.Params(), tw.opt, 10)
	return tw
}

// step runs every shard's forward and backward concurrently, then the
// spine's reduce and clip+Adam step. It returns each shard's logits and
// a copy of each replica's gradients taken before the reduce clears them.
func (tw *lazyTwin) step(as []space.Assignment, batches []*datapipe.Batch) (logits [][]float64, grads [][][]float64) {
	logits = make([][]float64, len(tw.reps))
	var wg sync.WaitGroup
	for s, rep := range tw.reps {
		wg.Add(1)
		go func(s int, rep *Supernet) {
			defer wg.Done()
			out := rep.Forward(as[s], batches[s])
			logits[s] = append([]float64(nil), out.Data...)
			dout := tensor.New(out.Rows, out.Cols)
			nn.BCEWithLogits{}.EvalInto(out, batches[s].Labels, dout)
			rep.Backward(dout)
		}(s, rep)
	}
	wg.Wait()
	lists := make([][]*nn.Param, len(tw.reps))
	for s, rep := range tw.reps {
		lists[s] = rep.Params()
		var g [][]float64
		for _, p := range rep.Params() {
			g = append(g, denseGrad(p))
		}
		grads = append(grads, g)
	}
	tw.spine.Reduce(lists)
	tw.spine.ClipStep()
	return logits, grads
}

// sameBits fails t unless got and want hold the same bits.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// sameWeights checks lazy's weights against eager's row by row. A lazy
// row nothing has read yet is all zero — no Gaussian row is — and is
// skipped; every other row must carry eager's bits. A network that has
// been materialized has no zero rows to skip.
func sameWeights(t *testing.T, what string, lazy, eager *Supernet) {
	t.Helper()
	for i, lp := range lazy.Params() {
		ev := eager.Params()[i].Value
		for r := 0; r < ev.Rows; r++ {
			row := lp.Value.Row(r)
			if lp.RowSparse && allZeroRow(row) {
				continue
			}
			for j, v := range row {
				if math.Float64bits(v) != math.Float64bits(ev.At(r, j)) {
					t.Fatalf("%s: param %d (%s) [%d,%d] = %v, eager %v", what, i, lp.Name, r, j, v, ev.At(r, j))
				}
			}
		}
	}
}

func allZeroRow(row []float64) bool {
	for _, v := range row {
		if v != 0 {
			return false
		}
	}
	return true
}

// wholeState rewrites an export so every stepped param is carried Whole:
// the materialized weights of params, and moments zero outside the
// stepped rows — the state a Whole-stepping optimizer would export.
func wholeState(st nn.AdamState, params []*nn.Param) nn.AdamState {
	nn.MaterializeAll(params)
	out := nn.AdamState{T: st.T, Params: make([]nn.ParamState, len(st.Params))}
	for i, ps := range st.Params {
		if ps.Kind != nn.SteppedRows {
			out.Params[i] = ps
			continue
		}
		v := params[i].Value
		w := append([]float64(nil), v.Data...)
		m, vv := make([]float64, len(w)), make([]float64, len(w))
		for k, r := range ps.Rows {
			copy(m[int(r)*v.Cols:], ps.M[k*v.Cols:(k+1)*v.Cols])
			copy(vv[int(r)*v.Cols:], ps.V[k*v.Cols:(k+1)*v.Cols])
		}
		out.Params[i] = nn.ParamState{Kind: nn.Whole, W: w, M: m, V: vv}
	}
	return out
}

// TestLazyInitMatchesEager drives a lazy network and an eager twin —
// built from one seed, the eager one materialized at construction —
// through concurrent shard steps, a row-sparse export/import, a resume
// from that export and a Whole import. Logits, gradients and every
// written weight must match bit for bit at every step, and the lazy
// networks, materialized at the end, must equal their eager twins whole.
func TestLazyInitMatchesEager(t *testing.T) {
	const shards, phase, batch = 3, 4, 16
	ds := space.NewDLRMSpace(space.SmallDLRMConfig())
	stream := datapipe.NewStream(datapipe.CTRConfig{
		NumTables: ds.Config.NumTables,
		Vocab:     ds.Config.BaseVocab,
		NumDense:  ds.Config.NumDense,
	}, lazyTwinSeed)
	arch := tensor.NewRNG(lazyTwinSeed + 1)

	// lockstep steps eager and every lazy twin on the same candidates
	// and batches, comparing each lazy twin with eager after every step.
	lockstep := func(what string, eager *lazyTwin, lazies ...*lazyTwin) {
		t.Helper()
		for k := 0; k < phase; k++ {
			as := make([]space.Assignment, shards)
			bs := make([]*datapipe.Batch, shards)
			for s := range as {
				as[s], bs[s] = randomAssignment(ds, arch), stream.NextBatch(batch)
			}
			el, eg := eager.step(as, bs)
			for _, lazy := range lazies {
				ll, lg := lazy.step(as, bs)
				for s := range ll {
					sameBits(t, what+": logits", ll[s], el[s])
					for i := range lg[s] {
						sameBits(t, what+": replica gradient", lg[s][i], eg[s][i])
					}
				}
				sameWeights(t, what, lazy.master, eager.master)
			}
		}
	}

	lazy, eager := newLazyTwin(ds, shards, false), newLazyTwin(ds, shards, true)
	lockstep("fresh", eager, lazy)

	// Row-sparse (v3) export: both sides carry the same rows and bits.
	lst, est := lazy.opt.Export(lazy.master.Params()), eager.opt.Export(eager.master.Params())
	for i := range est.Params {
		l, e := lst.Params[i], est.Params[i]
		if l.Kind != e.Kind || len(l.Rows) != len(e.Rows) {
			t.Fatalf("export of param %d: lazy kind %d with %d rows, eager kind %d with %d rows", i, l.Kind, len(l.Rows), e.Kind, len(e.Rows))
		}
		sameBits(t, "exported W", l.W, e.W)
		sameBits(t, "exported M", l.M, e.M)
		sameBits(t, "exported V", l.V, e.V)
	}

	// Resume from the export: a fresh lazy network imports the lazy
	// export and carries on in lockstep with the uninterrupted eager run.
	resumed := newLazyTwin(ds, shards, false)
	if err := resumed.opt.Import(resumed.master.Params(), lst); err != nil {
		t.Fatal(err)
	}
	sameWeights(t, "resumed", resumed.master, eager.master)
	lockstep("resumed", eager, resumed)

	// Whole import: every row is restored and marked written, so no first
	// read may overwrite one with its initialization.
	whole := newLazyTwin(ds, shards, false)
	if err := whole.opt.Import(whole.master.Params(), wholeState(eager.opt.Export(eager.master.Params()), eager.master.Params())); err != nil {
		t.Fatal(err)
	}
	sameWeights(t, "whole import", whole.master, eager.master)
	lockstep("after whole import", eager, resumed, whole)

	// Materialized, the lazy networks have no unwritten row left, so the
	// row-by-row comparison covers every weight.
	for _, tw := range []*lazyTwin{resumed, whole} {
		nn.MaterializeAll(tw.master.Params())
		for i, p := range tw.master.Params() {
			for r := 0; r < p.Value.Rows; r++ {
				if allZeroRow(p.Value.Row(r)) && !allZeroRow(eager.master.Params()[i].Value.Row(r)) {
					t.Fatalf("param %d (%s) row %d still unwritten after MaterializeAll", i, p.Name, r)
				}
			}
		}
		sameWeights(t, "materialized", tw.master, eager.master)
	}
}
