package nn

import (
	"fmt"
	"math"

	"h2onas/internal/tensor"
)

// Adam is the Adam optimizer with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t     int
	slots map[*Param]*adamSlot
	pages [][]float64 // row-wise moment storage, shared by every param
	used  int         // float64s of the last page handed out
	zero  []float64   // the gradient of Step's unwritten rows
}

// pageBits is log₂ of a moment page's float64 count (256 KiB pages). A
// row-wise moment block lives at page<<pageBits | offset, so a search's
// moment storage grows in a few large steps, one page at a time, never
// one allocation per param or a copy. The address is an int32: 2¹⁶
// pages, 16 GiB of moments.
const pageBits = 15

// adamSlot is the optimizer's state for one param it has stepped. Stepped
// whole (a dense param, or any param through Adam.Step), m and v are laid
// out like the value and slot is nil. Stepped row-wise, the moments are
// packed: one block per row any step has updated, the row's m then its v,
// handed out in first-stepped order from the optimizer's pages; slot[r]
// is 1 + the block's address, or 0 for a row never stepped, and n counts
// the stepped rows. The index is allocated once, on the param's first
// step.
type adamSlot struct {
	m, v []float64
	slot []int32
	n    int
}

// block returns row r of sl's moments: m and v, each cols wide.
func (o *Adam) block(sl *adamSlot, r, cols int) (m, v []float64) {
	if sl.slot == nil {
		a := r * cols
		return sl.m[a : a+cols], sl.v[a : a+cols]
	}
	at := int(sl.slot[r] - 1)
	b := o.pages[at>>pageBits][at&(1<<pageBits-1):]
	return b[:cols:cols], b[cols : 2*cols : 2*cols]
}

// mark gives rows (nil: the whole param) moment storage, zero for a row
// never stepped, before a step updates them; cols is the param's width.
func (o *Adam) mark(sl *adamSlot, rows []int32, cols int) {
	if sl.slot == nil {
		return // already whole
	}
	if rows == nil {
		// The first whole step: spread the packed moments out to the
		// value's layout.
		n := len(sl.slot) * cols
		mv := make([]float64, 2*n)
		m, v := mv[:n:n], mv[n:]
		for r, s := range sl.slot {
			if s != 0 {
				bm, bv := o.block(sl, r, cols)
				copy(m[r*cols:], bm)
				copy(v[r*cols:], bv)
			}
		}
		sl.m, sl.v, sl.slot = m, v, nil
		return
	}
	for _, r := range rows {
		if sl.slot[r] != 0 {
			continue
		}
		if len(o.pages) == 0 || o.used+2*cols > len(o.pages[len(o.pages)-1]) {
			// A block wider than a page gets a page of its own, at
			// offset 0.
			o.pages = append(o.pages, make([]float64, max(1<<pageBits, 2*cols)))
			o.used = 0
		}
		sl.slot[r] = int32((len(o.pages)-1)<<pageBits|o.used) + 1
		o.used += 2 * cols
		sl.n++
	}
}

// NewAdam returns an Adam optimizer with standard defaults
// (β₁=0.9, β₂=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one bias-corrected Adam update. It walks each stepped
// param's whole value, so a lazy one is materialized first; a
// row-tracked param's unwritten rows step with a zero gradient.
func (o *Adam) Step(params []*Param) {
	o.t++
	c1 := 1 - math.Pow(o.Beta1, float64(o.t))
	c2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		sl := o.slots[p]
		if sl == nil {
			// A parameter the optimizer has never stepped and whose gradient
			// is all-zero would get zero moments and a zero update — skipping
			// it (moments stay unallocated) is bitwise identical and avoids
			// walking every untouched parameter each step. A weight-sharing
			// search leaves most parameter bytes (unsampled embedding tables,
			// depth-sweep layers) in exactly this state for many steps.
			if allZero(p.liveGrad()) {
				continue
			}
			sl = o.alloc(p, false)
		}
		o.mark(sl, nil, p.Value.Cols)
		p.materialize()
		if !p.RowSparse {
			// Scale 1 is exact (g·1 = g), so this is the unscaled update.
			tensor.AdamRow(p.Value.Data, sl.m, sl.v, p.Grad.Data, 1, o.Beta1, o.Beta2, o.LR, o.Eps, c1, c2)
			continue
		}
		// The update is elementwise, so a row at a time in ascending
		// order, written rows from their slots, is the dense update.
		cols := p.Value.Cols
		if len(o.zero) < cols {
			o.zero = make([]float64, cols)
		}
		for r := 0; r < p.Value.Rows; r++ {
			g := o.zero[:cols]
			if p.marked(r) {
				g = p.gradRow(r)
			}
			a := r * cols
			tensor.AdamRow(p.Value.Data[a:a+cols], sl.m[a:a+cols], sl.v[a:a+cols], g, 1, o.Beta1, o.Beta2, o.LR, o.Eps, c1, c2)
		}
	}
}

// alloc lazily allocates p's slot: zero whole moments, or for a row-wise
// first step the row index, the packed moments coming as rows are marked.
func (o *Adam) alloc(p *Param, rowWise bool) *adamSlot {
	if o.slots == nil {
		o.slots = make(map[*Param]*adamSlot)
	}
	sl := &adamSlot{}
	if rowWise {
		sl.slot = make([]int32, p.Value.Rows)
	} else {
		n := len(p.Value.Data)
		mv := make([]float64, 2*n)
		sl.m, sl.v = mv[:n:n], mv[n:]
	}
	o.slots[p] = sl
	return sl
}

// StateKind says how much of a param an optimizer export carries.
type StateKind uint8

const (
	// Unstepped: the optimizer never stepped the param. It still holds
	// its initialization value and has zero moments, so the export
	// carries nothing.
	Unstepped StateKind = iota
	// Whole: the whole param's W, M and V.
	Whole
	// SteppedRows: the rows any step has updated, ascending, with W, M
	// and V for exactly those rows. Lazy Adam writes no other row, so
	// every other row still holds its initialization value and has zero
	// moments.
	SteppedRows
)

// ParamState is one param's share of an optimizer export: its Kind, the
// stepped rows (SteppedRows only) and the values W with moments M and V,
// row-major over the whole param (Whole) or over the listed rows.
type ParamState struct {
	Kind    StateKind
	Rows    []int32
	W, M, V []float64
}

// AdamState is the optimizer's portable state over a param list: the
// bias-correction step count and, per param, what differs from a fresh
// network. It lets checkpoint/restore resume training bit-identically.
type AdamState struct {
	T      int64
	Params []ParamState
}

// Export captures the state resume needs for params, in order: each
// param is Unstepped, Whole or SteppedRows (see StateKind). Export is a
// deep copy — later steps do not change it — made in three allocations
// whatever the param count: the rows are counted before anything is
// copied. A lazy param exported Whole is materialized first.
func (o *Adam) Export(params []*Param) AdamState {
	nVals, nRows := 0, 0
	for _, p := range params {
		switch sl := o.slots[p]; {
		case sl == nil:
		case sl.slot == nil:
			nVals += len(p.Value.Data)
		default:
			nVals += sl.n * p.Value.Cols
			nRows += sl.n
		}
	}
	vals := make([]float64, 3*nVals)
	rows := make([]int32, nRows)
	carve := func(n int) []float64 {
		v := vals[:n:n]
		vals = vals[n:]
		return v
	}
	st := AdamState{T: int64(o.t), Params: make([]ParamState, len(params))}
	for i, p := range params {
		sl := o.slots[p]
		if sl == nil {
			continue
		}
		ps := &st.Params[i]
		if sl.slot == nil {
			p.materialize()
			n := len(p.Value.Data)
			*ps = ParamState{Kind: Whole, W: carve(n), M: carve(n), V: carve(n)}
			copy(ps.W, p.Value.Data)
			copy(ps.M, sl.m)
			copy(ps.V, sl.v)
			continue
		}
		cols, n := p.Value.Cols, sl.n
		*ps = ParamState{Kind: SteppedRows, Rows: rows[:n:n], W: carve(n * cols), M: carve(n * cols), V: carve(n * cols)}
		rows = rows[n:]
		k := 0
		for r, s := range sl.slot {
			if s == 0 {
				continue
			}
			ps.Rows[k] = int32(r)
			src, dst := r*cols, k*cols
			m, v := o.block(sl, r, cols)
			copy(ps.W[dst:dst+cols], p.Value.Data[src:src+cols])
			copy(ps.M[dst:dst+cols], m)
			copy(ps.V[dst:dst+cols], v)
			k++
		}
	}
	return st
}

// Import restores state exported by Export for the same param order.
//
// Precondition: params are freshly built from the same seed as the
// exporting run's, and o is fresh (no step taken, no moments) — Import
// refuses an optimizer that is not. Every value the export left out is
// then already exactly what it was in the exporting run. Import
// validates every param before it writes anything, so a rejected state
// leaves params and o untouched. The values are copied in place, so
// replicas sharing storage with params see them too. Restored rows are
// re-marked as stepped, so a later Export still carries them, and as
// written, so a lazy table's first read does not overwrite them.
func (o *Adam) Import(params []*Param, st AdamState) error {
	if o.t != 0 || len(o.slots) != 0 {
		return fmt.Errorf("nn: Adam import needs a fresh optimizer (t = %d, %d params with moments)", o.t, len(o.slots))
	}
	if st.T < 0 {
		return fmt.Errorf("nn: Adam state has negative step count %d", st.T)
	}
	if len(st.Params) != len(params) {
		return fmt.Errorf("nn: Adam state covers %d params, want %d", len(st.Params), len(params))
	}
	for i, p := range params {
		if err := st.Params[i].check(p); err != nil {
			return fmt.Errorf("nn: Adam state for param %d (%s): %w", i, p.Name, err)
		}
	}
	o.t = int(st.T)
	for i, p := range params {
		ps := st.Params[i]
		switch ps.Kind {
		case Whole:
			sl := o.alloc(p, false)
			copy(p.Value.Data, ps.W)
			copy(sl.m, ps.M)
			copy(sl.v, ps.V)
			p.markWritten(nil)
		case SteppedRows:
			sl := o.alloc(p, true)
			cols := p.Value.Cols
			o.mark(sl, ps.Rows, cols)
			for k, r := range ps.Rows {
				src, dst := k*cols, int(r)*cols
				m, v := o.block(sl, int(r), cols)
				copy(p.Value.Data[dst:dst+cols], ps.W[src:src+cols])
				copy(m, ps.M[src:src+cols])
				copy(v, ps.V[src:src+cols])
			}
			p.markWritten(ps.Rows)
		}
	}
	return nil
}

// check validates ps against p's shape.
func (ps ParamState) check(p *Param) error {
	n := 0
	switch ps.Kind {
	case Unstepped:
	case Whole:
		n = len(p.Value.Data)
	case SteppedRows:
		if len(ps.Rows) == 0 {
			return fmt.Errorf("stepped-rows state lists no rows")
		}
		for k, r := range ps.Rows {
			if r < 0 || int(r) >= p.Value.Rows {
				return fmt.Errorf("row %d outside [0, %d)", r, p.Value.Rows)
			}
			if k > 0 && r <= ps.Rows[k-1] {
				return fmt.Errorf("rows not strictly ascending: %d after %d", r, ps.Rows[k-1])
			}
		}
		n = len(ps.Rows) * p.Value.Cols
	default:
		return fmt.Errorf("unknown state kind %d", ps.Kind)
	}
	if ps.Kind != SteppedRows && len(ps.Rows) != 0 {
		return fmt.Errorf("%d rows listed for a state without rows", len(ps.Rows))
	}
	if len(ps.W) != n || len(ps.M) != n || len(ps.V) != n {
		return fmt.Errorf("W/M/V hold %d/%d/%d values, want %d", len(ps.W), len(ps.M), len(ps.V), n)
	}
	return nil
}

// allZero reports whether every value in v is zero, early-exiting on the
// first nonzero (for gradients that were actually written, that is almost
// always the first element).
func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm, returning the pre-clip norm. It is a no-op when the norm is
// already within bounds or maxNorm <= 0.
//
// The sum runs over every element in row-major order. A row-tracked
// param's unwritten rows would add +0 each, which leaves the sum's bits
// alone, so only its written rows are summed, in ascending row order.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		if !p.RowSparse {
			for _, g := range p.Grad.Data {
				sq += g * g
			}
			continue
		}
		if len(p.DirtyRows) == 0 {
			continue
		}
		for r := 0; r < p.Value.Rows; r++ {
			if p.marked(r) {
				for _, g := range p.gradRow(r) {
					sq += g * g
				}
			}
		}
	}
	norm := math.Sqrt(sq)
	if maxNorm > 0 && norm > maxNorm {
		scale := maxNorm / (norm + 1e-12)
		for _, p := range params {
			g := p.liveGrad()
			for i := range g {
				g[i] *= scale
			}
		}
	}
	return norm
}

// ZeroGrads clears the gradients of all params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}
