package nn

import (
	"fmt"
	"math"
	"sync/atomic"

	"h2onas/internal/tensor"
)

// Embedding is the fine-grained weight-sharing embedding table of the DLRM
// super-network (Figure 3 ①): a vocab×maxWidth table from which any prefix
// width D can be selected; smaller widths reuse the first D columns of the
// shared vectors. Lookups take index lists (a "bag" per example) and mean-
// pool them, the standard DLRM sparse-feature reduction.
//
// Embedding does not implement Layer because its input is integer indices,
// not a Matrix; the super-network wires it explicitly.
type Embedding struct {
	Table *Param // vocab×maxWidth

	// Arena, when set, owns the pooled output matrices (valid until its
	// next Release); nil falls back to heap allocation.
	Arena *tensor.Arena

	// Workers bounds the parallelism of Forward under the owning search's
	// core budget (core.Config.Workers). 0 or 1 — the default — keeps the
	// historical serial loop. Backward is serial at any setting: bags
	// scatter into shared table rows (two examples can look up the same
	// id) and MarkRow's dedup state is not thread-safe.
	Workers int

	activeWidth int
	activeVocab int
	lastIndices [][]int

	// fwdOut is the output of the pass in flight and fwdFn forwardRows as
	// parallelRows bound it, so a parallel Forward allocates no closure.
	fwdOut *tensor.Matrix
	fwdFn  func(lo, hi int)

	// init is the table's deferred initialization; Table.lazy points at
	// it unless the table was built weightless (ZeroRNG).
	init lazyRows
}

// NewEmbedding returns a vocab×maxWidth table initialized N(0, 1/√maxWidth)
// from rng. The initialization is lazy: each row is written the first
// time a lookup (or MaterializeAll) reads it, with exactly the bits an
// eager tensor.RandN fill would have given it, and rng advances past
// every draw that fill takes.
func NewEmbedding(vocab, maxWidth int, rng *tensor.RNG) *Embedding {
	e := newEmbedding(vocab, maxWidth, rng)
	if e.Table.lazy != nil {
		e.init.done = make([]atomic.Bool, vocab)
	}
	return e
}

// NewEmbeddings returns one NewEmbedding table per vocabulary size, all
// maxWidth wide, table i drawing from the i-th rng.Split(). The tables'
// pending-row marks share one allocation.
func NewEmbeddings(vocabs []int, maxWidth int, rng *tensor.RNG) []*Embedding {
	total := 0
	for _, v := range vocabs {
		total += v
	}
	var marks []atomic.Bool
	es := make([]*Embedding, len(vocabs))
	for i, v := range vocabs {
		e := newEmbedding(v, maxWidth, rng.Split())
		if e.Table.lazy != nil {
			if marks == nil {
				marks = make([]atomic.Bool, total)
			}
			e.init.done, marks = marks[:v:v], marks[v:]
		}
		es[i] = e
	}
	return es
}

// newEmbedding builds a lazy table but its row marks, which the caller
// allocates when Table.lazy is set; a ZeroRNG table is a weightless
// placeholder with nothing pending.
func newEmbedding(vocab, maxWidth int, rng *tensor.RNG) *Embedding {
	t, state, lazy := tensor.DeferRandN(vocab, maxWidth, rng)
	e := &Embedding{
		Table:       NewParam(fmt.Sprintf("embedding_%dx%d", vocab, maxWidth), t),
		activeWidth: maxWidth,
		activeVocab: vocab,
	}
	if lazy {
		e.init.state, e.init.std = state, 1/math.Sqrt(float64(maxWidth))
		e.Table.lazy = &e.init
	}
	// Lookups scatter gradients into a handful of rows per step; row
	// tracking lets the weight-update spine touch only those rows.
	e.Table.EnableRowTracking()
	return e
}

// SetActiveWidth selects how many leading columns of each vector are used.
func (e *Embedding) SetActiveWidth(d int) {
	if d <= 0 || d > e.Table.Value.Cols {
		panic(fmt.Sprintf("nn: Embedding.SetActiveWidth(%d) outside 1..%d", d, e.Table.Value.Cols))
	}
	e.activeWidth = d
}

// SetActiveVocab restricts lookups to the first v rows; indices are taken
// modulo v, modelling a shrunken vocabulary (hash collisions fold tail ids
// onto head ids, as production vocabulary truncation does).
func (e *Embedding) SetActiveVocab(v int) {
	if v <= 0 || v > e.Table.Value.Rows {
		panic(fmt.Sprintf("nn: Embedding.SetActiveVocab(%d) outside 1..%d", v, e.Table.Value.Rows))
	}
	e.activeVocab = v
}

// Forward mean-pools the active-width vectors of each example's index bag,
// producing a batch×activeWidth matrix. Empty bags produce zero vectors.
func (e *Embedding) Forward(indices [][]int) *tensor.Matrix {
	e.lastIndices = indices
	out := e.Arena.Get(len(indices), e.activeWidth)
	lookups := 0
	for _, bag := range indices {
		lookups += len(bag)
	}
	// Batch rows are the parallel axis: each pooled output row is written
	// by exactly one worker, reading the shared table, with the bag
	// accumulated in the serial order — bit-identical for any fan-out.
	e.fwdOut = out
	parallelRows(e, (*Embedding).forwardRows, &e.fwdFn, len(indices), lookups*e.activeWidth, e.Workers)
	e.fwdOut = nil
	return out
}

// forwardRows mean-pools bags [lo, hi) into the matching output rows.
func (e *Embedding) forwardRows(lo, hi int) {
	out := e.fwdOut
	for i := lo; i < hi; i++ {
		bag := e.lastIndices[i]
		if len(bag) == 0 {
			continue
		}
		orow := out.Row(i)
		inv := 1 / float64(len(bag))
		for _, idx := range bag {
			r := e.fold(idx)
			e.Table.ensureRow(r)
			tensor.Axpy(orow, inv, e.Table.Value.Row(r))
		}
	}
}

// Backward scatters the pooled gradient back onto the active columns of the
// looked-up rows. There is no input gradient (indices are not
// differentiable). The scatter stays serial regardless of Workers: bags
// from different examples can hit the same table row (a write collision),
// and MarkRow's dedup bookkeeping is single-threaded by design.
func (e *Embedding) Backward(grad *tensor.Matrix) {
	if e.lastIndices == nil {
		panic("nn: Embedding.Backward before Forward")
	}
	if grad.Rows != len(e.lastIndices) || grad.Cols != e.activeWidth {
		panic(fmt.Sprintf("nn: Embedding grad shape %dx%d, want %dx%d", grad.Rows, grad.Cols, len(e.lastIndices), e.activeWidth))
	}
	for i, bag := range e.lastIndices {
		if len(bag) == 0 {
			continue
		}
		grow := grad.Row(i)[:e.activeWidth]
		inv := 1 / float64(len(bag))
		for _, idx := range bag {
			r := e.fold(idx)
			trow := e.Table.Grad.Row(r)[:e.activeWidth]
			tensor.Axpy(trow, inv, grow)
			e.Table.MarkRow(r)
		}
	}
	e.Table.Dirty = true
}

// Params returns the shared table parameter.
func (e *Embedding) Params() []*Param { return []*Param{e.Table} }

// SetArena and SetWorkers set Arena and Workers (SharedLayer).
func (e *Embedding) SetArena(a *tensor.Arena) { e.Arena = a }
func (e *Embedding) SetWorkers(n int)         { e.Workers = n }

func (e *Embedding) fold(idx int) int {
	if idx < 0 {
		idx = -idx
	}
	return idx % e.activeVocab
}
