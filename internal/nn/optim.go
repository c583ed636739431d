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
}

// adamSlot is the optimizer's state for one param it has stepped: the
// moments, and which rows any step has ever updated. stepped is nil once
// the param has been stepped whole (a dense param, Adam.Step, or a
// row-sparse param dirtied without row marks); otherwise it marks the
// stepped rows and nStepped counts them. It is allocated once, on the
// param's first step, so marking allocates nothing per step.
type adamSlot struct {
	m, v     []float64
	stepped  []bool
	nStepped int
}

// mark records rows (nil: the whole param) as stepped.
func (sl *adamSlot) mark(rows []int32) {
	if rows == nil {
		sl.stepped = nil
		return
	}
	if sl.stepped == nil {
		return // already whole
	}
	for _, r := range rows {
		if !sl.stepped[r] {
			sl.stepped[r] = true
			sl.nStepped++
		}
	}
}

// NewAdam returns an Adam optimizer with standard defaults
// (β₁=0.9, β₂=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one bias-corrected Adam update. It walks each stepped
// param's whole value, so a lazy one is materialized first.
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
			if allZero(p.Grad.Data) {
				continue
			}
			sl = o.alloc(p, false)
		}
		sl.mark(nil)
		p.materialize()
		// Scale 1 is exact (g·1 = g), so this is the unscaled update.
		tensor.AdamRow(p.Value.Data, sl.m, sl.v, p.Grad.Data, 1, o.Beta1, o.Beta2, o.LR, o.Eps, c1, c2)
	}
}

// alloc lazily allocates p's slot: zero moments, both in one array, and
// the stepped-row marks when the first step is row-wise.
func (o *Adam) alloc(p *Param, rowWise bool) *adamSlot {
	if o.slots == nil {
		o.slots = make(map[*Param]*adamSlot)
	}
	n := len(p.Value.Data)
	mv := make([]float64, 2*n)
	sl := &adamSlot{m: mv[:n:n], v: mv[n:]}
	if rowWise {
		sl.stepped = make([]bool, p.Value.Rows)
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
		case sl.stepped == nil:
			nVals += len(p.Value.Data)
		default:
			nVals += sl.nStepped * p.Value.Cols
			nRows += sl.nStepped
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
		if sl.stepped == nil {
			p.materialize()
			n := len(p.Value.Data)
			*ps = ParamState{Kind: Whole, W: carve(n), M: carve(n), V: carve(n)}
			copy(ps.W, p.Value.Data)
			copy(ps.M, sl.m)
			copy(ps.V, sl.v)
			continue
		}
		cols, n := p.Value.Cols, sl.nStepped
		*ps = ParamState{Kind: SteppedRows, Rows: rows[:n:n], W: carve(n * cols), M: carve(n * cols), V: carve(n * cols)}
		rows = rows[n:]
		k := 0
		for r, on := range sl.stepped {
			if !on {
				continue
			}
			ps.Rows[k] = int32(r)
			src, dst := r*cols, k*cols
			copy(ps.W[dst:dst+cols], p.Value.Data[src:src+cols])
			copy(ps.M[dst:dst+cols], sl.m[src:src+cols])
			copy(ps.V[dst:dst+cols], sl.v[src:src+cols])
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
			for k, r := range ps.Rows {
				src, dst := k*cols, int(r)*cols
				copy(p.Value.Data[dst:dst+cols], ps.W[src:src+cols])
				copy(sl.m[dst:dst+cols], ps.M[src:src+cols])
				copy(sl.v[dst:dst+cols], ps.V[src:src+cols])
			}
			sl.mark(ps.Rows)
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
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if maxNorm > 0 && norm > maxNorm {
		scale := maxNorm / (norm + 1e-12)
		for _, p := range params {
			tensor.ScaleInPlace(p.Grad, scale)
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
