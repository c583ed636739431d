package nn

import (
	"runtime"
	"sync"
	"sync/atomic"

	"h2onas/internal/tensor"
)

// lazyRows is the deferred N(0, std²) initialization of an embedding
// table's value. The value is allocated zeroed; row r is written with
// tensor.FillNormRows — the bits tensor.RandN would have given it — the
// first time anything reads it. A search reads a fraction of its tables'
// rows, so most of the Box–Muller work of a build is never done.
//
// The state belongs to the value's storage, not to one Param: every
// replica sharing the value shares it too (ShareValues), so a row
// written through any view is written for all. Invariants:
//
//   - done[r] set ⇒ row r holds its initial value or a later write;
//   - done[r] unset ⇒ row r is all zero and nothing has read it;
//   - code that reads or updates a whole value materializes it first
//     (MaterializeAll; Adam.Step and the spine's whole-param step);
//   - code that writes rows without reading them (Adam.Import) marks
//     what it writes, or a later first read would overwrite it.
type lazyRows struct {
	mu    sync.Mutex // serializes writers of pending rows
	state uint64     // the table generator's state before its draws
	std   float64
	done  []atomic.Bool // one mark per row, published with a release store
	whole atomic.Bool   // every row done: MaterializeAll has nothing to do
}

// ensureRow writes row r of p's value with its initial value if nothing
// has read it yet; call it before reading the row. The fast path is one
// atomic load and inlines into the lookup loop; the slow path fills the
// row under the table's lock, so concurrent shards may read any rows.
func (p *Param) ensureRow(r int) {
	if p.lazy != nil && !p.lazy.done[r].Load() {
		p.fillRow(r)
	}
}

// fillRow is ensureRow's slow path: it writes row r unless a concurrent
// reader got there first.
func (p *Param) fillRow(r int) {
	l := p.lazy
	l.mu.Lock()
	if !l.done[r].Load() {
		tensor.FillNormRows(p.Value, l.state, l.std, r, r+1)
		l.done[r].Store(true)
	}
	l.mu.Unlock()
}

// materialize writes every row of p's value nothing has read yet.
func (p *Param) materialize() {
	l := p.lazy
	if l == nil || l.whole.Load() {
		return
	}
	l.mu.Lock()
	for r := range l.done {
		if !l.done[r].Load() {
			tensor.FillNormRows(p.Value, l.state, l.std, r, r+1)
			l.done[r].Store(true)
		}
	}
	l.whole.Store(true)
	l.mu.Unlock()
}

// markWritten records rows of p's value as written by something other
// than a first read; nil means every row.
func (p *Param) markWritten(rows []int32) {
	l := p.lazy
	if l == nil {
		return
	}
	if rows == nil {
		for r := range l.done {
			l.done[r].Store(true)
		}
		l.whole.Store(true)
		return
	}
	for _, r := range rows {
		l.done[r].Store(true)
	}
}

// MaterializeAll writes every not-yet-read row of the params' lazy
// values, so their Value.Data can be read or written whole. Tables fill
// in parallel, up to GOMAXPROCS wide, each under its own lock; the bits
// are those of a serial eager initialization. Params without pending
// rows cost one load each.
func MaterializeAll(params []*Param) {
	var pending []*Param
	for _, p := range params {
		if p.lazy != nil && !p.lazy.whole.Load() {
			pending = append(pending, p)
		}
	}
	tensor.ParallelFor(len(pending), runtime.GOMAXPROCS(0), func(lo, hi int) {
		for _, p := range pending[lo:hi] {
			p.materialize()
		}
	})
}

// ShareValues makes every dst param a view of the matching src param's
// value — the weight sharing of a replica — including the value's
// not-yet-read rows, so a row first read through any view is written
// once, for all of them. Gradients stay separate.
func ShareValues(dst, src []*Param) {
	for i, p := range dst {
		p.Value, p.lazy = src[i].Value, src[i].lazy
	}
}
