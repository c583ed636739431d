package nn

import (
	"fmt"
	"math"
	"runtime"

	"h2onas/internal/tensor"
)

// reduceParamAt folds param i of every replica into master param p,
// averaging by 1/len(replicas) (inv), in replica slice order. A row-tracked
// replica param contributes only its slots (every other row is exactly
// zero), slot order being first-write order, and marks each row on the
// master, whose slots thereby follow the same order and stay packed for
// the downstream passes. Both the serial reference (ReduceParamGrads) and
// the parallel spine reduce call this one function, so serial and
// parallel reduces are bit-identical by construction — parallelism only
// changes which goroutine handles which param, never the work done for a
// param.
func reduceParamAt(p *Param, replicas [][]*Param, i int, inv float64) {
	if p.RowSparse {
		n := 0
		for _, rep := range replicas {
			if rp := rep[i]; rp.Dirty {
				n += len(rp.DirtyRows)
			}
		}
		p.reserve(n)
	}
	for _, rep := range replicas {
		rp := rep[i]
		if !rp.Dirty {
			continue
		}
		if rp.RowSparse != p.RowSparse {
			panic(fmt.Sprintf("nn: param %d (%s) is row-tracked on one side of the reduce only", i, p.Name))
		}
		if p.RowSparse {
			cols := p.Grad.Cols
			for k, r := range rp.DirtyRows {
				tensor.Axpy(p.MarkRow(int(r)), inv, rp.Grad.Data[k*cols:(k+1)*cols])
			}
			clear(rp.liveGrad())
			rp.ClearRows()
		} else {
			tensor.AXPY(p.Grad, inv, rp.Grad)
			rp.Grad.Zero()
		}
		p.Dirty = true
		rp.Dirty = false
	}
}

// ReduceParamGrads is the serial reference cross-replica gradient reduce:
// it sums the replicas' gradients into master's (averaging by replica
// count), clears the replicas' gradients, and returns the worklist of
// master param indices that are dirty afterwards, appended to wl (reset
// to length zero first, so a reused buffer stays allocation-free).
//
// Replica params whose Dirty flag is clear are skipped: by the Dirty
// invariant their gradients are exactly zero, so the AXPY would add zero
// and the Zero would clear zeros. Row-tracked params are reduced slot by
// slot, same argument one level down.
// Spine.Reduce is the parallel equivalent — parallel across params,
// serial within a param — and is bit-identical to this function because
// both run reduceParamAt per param.
func ReduceParamGrads(master []*Param, replicas [][]*Param, wl []int) []int {
	wl = wl[:0]
	if len(replicas) == 0 {
		return wl
	}
	inv := 1 / float64(len(replicas))
	for i, p := range master {
		reduceParamAt(p, replicas, i, inv)
		if p.Dirty {
			wl = append(wl, i)
		}
	}
	return wl
}

// applyEntry is one parameter's share of the fused clip+Adam pass: the
// param, its optimizer state, and rows, the dirty-row worklist of a
// row-tracked param, whose gradient slot k holds row rows[k]; nil means
// the whole gradient is live and the update walks it densely.
type applyEntry struct {
	p    *Param
	sl   *adamSlot
	rows []int32
}

// ParamTouch identifies one parameter the last ClipStep modified: its
// index in the spine's param list and, for row-sparse params, the exact
// rows stepped (nil means the whole tensor was stepped densely). It is
// the unit of the weight-delta broadcast a distributed transport sends
// to remote shard workers after each step.
type ParamTouch struct {
	Index int
	Rows  []int32
}

// Spine is the coordinator's parallel cross-shard weight-update engine
// for one search: gradient reduce, global-norm clipping and the Adam
// update, parallelized across parameters on the shared kernel worker
// pool while staying bit-deterministic for any worker count.
//
// The determinism argument has two parts. Across params, every pass
// (reduce, partial sum-of-squares, fused update) touches disjoint state —
// one chunk owns a contiguous range of the param list and no two chunks
// share a param — so results are independent of chunk boundaries and
// scheduling. Within a param, the accumulation order is fixed: the reduce
// visits replicas in slice order and rows in first-write order, and the
// per-element kernels (Axpy, Dot) use the same fixed-order loops as the
// serial reference. The only cross-param combination — summing the
// per-param squared-norm partials — runs serially in worklist (= param
// index) order.
//
// The update itself follows lazy-Adam semantics: only params (and, for
// row-sparse embedding tables, only rows) with a live gradient this step
// are stepped; untouched moments are frozen rather than decayed. That is
// the standard sparse-Adam variant — exactly as deterministic as the
// eager form, and it keeps the per-step cost proportional to what the
// step touched instead of to everything ever touched.
//
// A Spine is owned by a single goroutine at a time (the search's
// coordinator); it is not safe for concurrent use, but distinct searches
// with distinct Spines can run concurrently. Steady-state Reduce+ClipStep
// calls perform no heap allocations: the worklist, partial and apply
// buffers are reused, and the dispatch closures are hoisted at
// construction.
type Spine struct {
	params  []*Param
	opt     *Adam
	maxNorm float64
	// workers bounds the parallelism of every pass. It is captured from
	// GOMAXPROCS at construction so a GOMAXPROCS=1 run takes the serial
	// path even when the process-wide kernel pool was sized earlier with
	// more workers. Tests override it directly.
	workers int

	// Per-call state, published to the hoisted closures before dispatch
	// and read back after the ParallelFor barrier.
	replicas [][]*Param
	inv      float64
	dirty    []int
	sumsq    []float64
	scale    float64
	c1, c2   float64
	apply    []applyEntry

	reduceFn func(lo, hi int)
	normFn   func(lo, hi int)
	applyFn  func(lo, hi int)

	// Touched-param recording for transports that broadcast weight
	// deltas. Off by default: the in-process transport shares weight
	// storage and never needs it, so the steady-state step pays nothing.
	recordTouched bool
	touched       []ParamTouch
	touchRows     []int32 // backing store for the recorded row copies
}

// NewSpine builds the update engine for params, stepping with opt and
// clipping the global gradient norm to maxNorm (<= 0 disables clipping).
func NewSpine(params []*Param, opt *Adam, maxNorm float64) *Spine {
	s := &Spine{
		params:  params,
		opt:     opt,
		maxNorm: maxNorm,
		workers: runtime.GOMAXPROCS(0),
	}
	s.reduceFn = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			reduceParamAt(s.params[i], s.replicas, i, s.inv)
		}
	}
	s.normFn = func(lo, hi int) {
		for k := lo; k < hi; k++ {
			p := s.params[s.dirty[k]]
			g := p.liveGrad()
			if p.RowSparse {
				cols := p.Grad.Cols
				var sq float64
				for a := 0; a < len(g); a += cols {
					row := g[a : a+cols]
					sq += tensor.Dot(row, row)
				}
				s.sumsq[k] = sq
			} else {
				s.sumsq[k] = tensor.Dot(g, g)
			}
		}
	}
	s.applyFn = func(lo, hi int) {
		o := s.opt
		// step updates one span of the param and clears its gradient
		// while it is still in L1.
		step := func(pv, md, vd, gd []float64) {
			tensor.AdamRow(pv, md, vd, gd, s.scale, o.Beta1, o.Beta2, o.LR, o.Eps, s.c1, s.c2)
			clear(gd)
		}
		for k := lo; k < hi; k++ {
			e := s.apply[k]
			pv, gd := e.p.Value.Data, e.p.Grad.Data
			if e.rows == nil {
				step(pv, e.sl.m, e.sl.v, gd)
			} else {
				cols := e.p.Grad.Cols
				for k, r := range e.rows {
					// The Forward behind a row's gradient read the row,
					// save one a dense gradient patch named: that one is
					// initialized here.
					e.p.ensureRow(int(r))
					a, g := int(r)*cols, k*cols
					m, v := o.block(e.sl, int(r), cols)
					step(pv[a:a+cols], m, v, gd[g:g+cols])
				}
				e.p.ClearRows()
			}
			e.p.Dirty = false
		}
	}
	return s
}

// Reduce performs the cross-shard gradient reduce from the replicas'
// param lists into the spine's master params, parallel across params and
// serial (slice order) within each param, and rebuilds the dirty-param
// worklist that ClipStep consumes. The returned slice is owned by the
// spine and valid until the next Reduce.
func (s *Spine) Reduce(replicas [][]*Param) []int {
	for _, rep := range replicas {
		if len(rep) != len(s.params) {
			panic(fmt.Sprintf("nn: replica has %d params, master has %d", len(rep), len(s.params)))
		}
	}
	if len(replicas) > 0 {
		s.replicas = replicas
		s.inv = 1 / float64(len(replicas))
		tensor.ParallelFor(len(s.params), s.workers, s.reduceFn)
		s.replicas = nil
	}
	s.dirty = s.dirty[:0]
	for i, p := range s.params {
		if p.Dirty {
			s.dirty = append(s.dirty, i)
		}
	}
	return s.dirty
}

// ClipStep applies the fused clip+Adam update over the current dirty
// worklist and returns the pre-clip global gradient norm. It replaces the
// ClipGradNorm → Adam.Step → ZeroGrads spine with a single parallel pass
// per dirty param: the per-param squared-norm partials are computed in
// parallel and combined serially in param order, then each dirty param's
// clip scale, Adam moments, weight update and gradient clear happen in
// one traversal — over only the dirty rows for row-sparse params. Clean
// params are never touched at all: the update is lazy Adam (see Spine),
// so there is no decay pass over previously stepped parameters.
func (s *Spine) ClipStep() float64 {
	o := s.opt
	o.t++
	s.c1 = 1 - math.Pow(o.Beta1, float64(o.t))
	s.c2 = 1 - math.Pow(o.Beta2, float64(o.t))

	if cap(s.sumsq) < len(s.dirty) {
		s.sumsq = make([]float64, len(s.dirty))
	}
	s.sumsq = s.sumsq[:len(s.dirty)]
	tensor.ParallelFor(len(s.dirty), s.workers, s.normFn)
	var sq float64
	for _, v := range s.sumsq {
		sq += v
	}
	norm := math.Sqrt(sq)
	s.scale = 1
	if s.maxNorm > 0 && norm > s.maxNorm {
		s.scale = s.maxNorm / (norm + 1e-12)
	}

	// Serial pre-pass: moment allocation mutates the optimizer's map and
	// hands rows their moment slots, so it cannot run inside the parallel
	// apply. In steady state every dirty param already has moments and
	// this is a worklist walk of map reads, plus the slot lookups of the
	// dirty rows (a new slot for a row never stepped before).
	s.apply = s.apply[:0]
	s.touched = s.touched[:0]
	s.touchRows = s.touchRows[:0]
	for _, i := range s.dirty {
		p := s.params[i]
		var rows []int32
		if p.RowSparse {
			rows = p.DirtyRows
			if len(rows) == 0 {
				// Dirty with no recorded rows: the gradient is exactly
				// zero (row invariant), so there is nothing to step.
				p.Dirty = false
				continue
			}
		}
		sl := o.slots[p]
		if sl == nil {
			if rows == nil && allZero(p.Grad.Data) {
				// Identical to Adam.Step's skip: moments stay unallocated
				// and the update is exactly zero. The gradient is already
				// all zero, so clearing the flag restores the Dirty
				// invariant without a memclr.
				p.Dirty = false
				continue
			}
			sl = o.alloc(p, rows != nil)
		}
		o.mark(sl, rows, p.Value.Cols)
		if rows == nil {
			// A whole step writes every row, read or not.
			p.materialize()
		}
		s.apply = append(s.apply, applyEntry{p: p, sl: sl, rows: rows})
		if s.recordTouched {
			// Copy the row worklist: the apply pass ClearRows the param,
			// and the next Backward reuses the backing array. Copies land
			// in one shared buffer so steady-state steps reallocate only
			// on growth. (Append-triggered growth copies the data, so
			// earlier sub-slices remain valid — they are never mutated.)
			var tr []int32
			if rows != nil {
				start := len(s.touchRows)
				s.touchRows = append(s.touchRows, rows...)
				tr = s.touchRows[start:len(s.touchRows):len(s.touchRows)]
			}
			s.touched = append(s.touched, ParamTouch{Index: i, Rows: tr})
		}
	}
	tensor.ParallelFor(len(s.apply), s.workers, s.applyFn)
	return norm
}

// SetWorkers bounds the parallelism of every spine pass (reduce, norm,
// fused apply). Values below 1 clamp to 1 (fully serial). The bound is a
// performance knob only: every pass is bit-identical for any worker
// count, so changing it never changes a trajectory. The search loop sets
// it to the full core budget — the spine runs in the coordinator-
// exclusive stage-3 window, when no shard worker is computing.
func (s *Spine) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.workers = n
}

// SetRecordTouched toggles touched-param recording. When on, each
// ClipStep records which params (and which rows, for row-sparse params)
// it stepped, retrievable via Touched until the next ClipStep. Distributed
// transports use the record to broadcast minimal weight deltas; the
// default (off) costs the step loop nothing.
func (s *Spine) SetRecordTouched(on bool) { s.recordTouched = on }

// Touched returns the params modified by the last ClipStep, in param-index
// order. The slice (and the row slices inside it) is owned by the spine
// and valid until the next ClipStep. Empty unless SetRecordTouched(true)
// was called before the step.
func (s *Spine) Touched() []ParamTouch { return s.touched }
