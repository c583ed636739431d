package nn

import (
	"fmt"
	"math"
	"runtime"

	"h2onas/internal/tensor"
)

// Param is a trainable parameter tensor together with its accumulated
// gradient. Optimizers consume Params; layers own them.
type Param struct {
	Name  string
	Value *tensor.Matrix
	// Grad is the accumulated gradient: Value's shape for a dense param,
	// packed rows for a row-tracked one (see RowSparse).
	Grad *tensor.Matrix

	// Dirty is set by layer Backward methods when they accumulate into
	// Grad, and cleared by ZeroGrad/ZeroGrads. The contract is an
	// invariant — Dirty unset ⇒ Grad is exactly zero — that gradient
	// reducers, ZeroGrad, and the optimizers exploit to skip full-size
	// passes over untouched parameters (e.g. inactive embedding tables on
	// a shard, or dropped shards). Any code that writes Grad outside a
	// layer Backward must set Dirty itself or the skip paths will treat
	// the gradient as zero.
	Dirty bool

	// RowSparse marks a scatter-written param (embedding tables, low-rank
	// factors) whose gradient is stored packed: Grad holds one Cols-wide
	// slot per row written since the last ClearRows, slot i holding row
	// DirtyRows[i], and rows nobody wrote have no storage at all. Every
	// write goes through MarkRow, which hands a row its slot. Grad.Rows is
	// the slot capacity, not Value.Rows; a slot past len(DirtyRows) is
	// exactly zero, and whoever consumes a row (reduce, apply, ZeroGrad)
	// zeroes its slot before ClearRows. The coordinator spine reduces,
	// norms, updates and clears only those slots — on a weight-sharing
	// search the overwhelming majority of embedding rows are untouched
	// each step, and walking them, or even storing them, is pure waste.
	RowSparse bool
	// DirtyRows lists the rows written since the last ClearRows, in
	// first-write order, deduplicated. Only meaningful when RowSparse.
	DirtyRows []int32

	// rowSlot is the sparse-set index of DirtyRows: row r is marked iff
	// s = rowSlot[r] < len(DirtyRows) and DirtyRows[s] == r, so a mark
	// and a clear are O(1) and stale entries need no reset.
	rowSlot []int32

	// lazy, when set, is the pending-row state of a lazily initialized
	// value (see lazyRows), shared by every param viewing that value.
	lazy *lazyRows
}

// NewParam allocates a parameter with a zeroed gradient of matching shape.
func NewParam(name string, value *tensor.Matrix) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Rows, value.Cols)}
}

// newRowParam returns a row-tracked parameter (see RowSparse) with no
// gradient storage yet.
func newRowParam(name string, value *tensor.Matrix) *Param {
	p := &Param{Name: name, Value: value}
	p.EnableRowTracking()
	return p
}

// EnableRowTracking switches a clean param to packed row storage (see
// RowSparse), dropping its dense gradient. The layer that owns the param
// must MarkRow every gradient row it writes from then on.
func (p *Param) EnableRowTracking() {
	p.RowSparse = true
	p.Grad = &tensor.Matrix{Cols: p.Value.Cols}
}

// MarkRow records row r as written since the last ClearRows and returns
// its gradient storage to accumulate into. On a row-tracked param the
// first mark of a row in an epoch hands it the next slot — slot
// len(DirtyRows), not cleared, which the packed invariant keeps zero —
// and later marks return the same slot. On a dense param it returns row
// r of Grad and records nothing.
func (p *Param) MarkRow(r int) []float64 {
	cols := p.Grad.Cols
	if !p.RowSparse {
		return p.Grad.Data[r*cols : (r+1)*cols]
	}
	if p.rowSlot == nil {
		// The worklist can never outgrow the row count, so it shares the
		// index's allocation and never reallocates.
		n := p.Value.Rows
		idx := make([]int32, 2*n)
		p.rowSlot, p.DirtyRows = idx[:n:n], idx[n:n]
	}
	s := int(p.rowSlot[r])
	if !p.marked(r) {
		s = len(p.DirtyRows)
		if s == p.Grad.Rows {
			p.reserve(1)
		}
		p.rowSlot[r] = int32(s)
		p.DirtyRows = append(p.DirtyRows, int32(r))
	}
	return p.Grad.Data[s*cols : (s+1)*cols]
}

// reserve grows a row-tracked gradient so n more rows can be marked
// without reallocating: at least doubling, never past the row count, so
// a gradient reaches its working size in a few large steps.
func (p *Param) reserve(n int) {
	rows := p.Value.Rows
	need := min(len(p.DirtyRows)+n, rows)
	if need <= p.Grad.Rows {
		return
	}
	c := max(need, min(2*p.Grad.Rows, rows))
	data := make([]float64, c*p.Grad.Cols)
	copy(data, p.Grad.Data)
	p.Grad.Data, p.Grad.Rows = data, c
}

// marked reports whether row r of a row-tracked param has a slot.
func (p *Param) marked(r int) bool {
	if p.rowSlot == nil {
		return false
	}
	s := int(p.rowSlot[r])
	return s < len(p.DirtyRows) && p.DirtyRows[s] == int32(r)
}

// gradRow returns row r's gradient: its slot if the param is row-tracked
// (the row must be marked), row r of Grad otherwise.
func (p *Param) gradRow(r int) []float64 {
	cols := p.Grad.Cols
	if p.RowSparse {
		r = int(p.rowSlot[r])
	}
	return p.Grad.Data[r*cols : (r+1)*cols]
}

// liveGrad returns the gradient values that may be nonzero: every slot in
// use of a row-tracked param, the whole gradient of a dense one.
func (p *Param) liveGrad() []float64 {
	if p.RowSparse {
		return p.Grad.Data[:len(p.DirtyRows)*p.Grad.Cols]
	}
	return p.Grad.Data
}

// ClearRows empties the dirty-row worklist, handing every slot back. It
// does not zero them: the caller has consumed and zeroed the rows. The
// worklist keeps its capacity so steady-state steps allocate nothing.
func (p *Param) ClearRows() { p.DirtyRows = p.DirtyRows[:0] }

// ZeroGrad clears the accumulated gradient and the Dirty mark. A clean
// param's gradient is already zero by the Dirty invariant, so the memclr
// runs only for params that were actually written since the last clear —
// and, for row-tracked params, only over the slots in use.
func (p *Param) ZeroGrad() {
	if !p.Dirty {
		return
	}
	clear(p.liveGrad())
	p.ClearRows()
	p.Dirty = false
}

// parallelRows runs the layer loop loop(recv, lo, hi) over [0, n) under a
// layer's workers budget: inline — the historical serial path — when the
// budget is absent or 1 or the work multiply-adds are too few to pay for
// dispatch (tensor.WorkersFor's grain), otherwise as chunks on the shared
// kernel pool. The pool needs a func value; *bound caches loop bound to
// recv the first time a layer fans out, so a steady-state pass allocates
// nothing and a layer that never fans out (every replica but the sandwich
// shard's, on a host with fewer cores than shards) never pays for one.
// The budget is a performance knob only: every layer loop dispatched here
// partitions disjoint output state and preserves the serial per-element
// accumulation order, so the worker count never changes bits.
func parallelRows[T any](recv *T, loop func(*T, int, int), bound *func(lo, hi int), n, work, budget int) {
	if budget > 1 {
		if w := tensor.WorkersFor(work, budget); w > 1 {
			if *bound == nil {
				*bound = func(lo, hi int) { loop(recv, lo, hi) }
			}
			tensor.ParallelFor(n, w, *bound)
			return
		}
	}
	loop(recv, 0, n)
}

// SharedLayer is a super-network layer as its network lists it, once: its
// weights, in the network's Params order, and the arena and core budget
// its passes run under. A super-network's Params, SetArena and SetWorkers
// all walk one ordered list of them (SharedNet).
type SharedLayer interface {
	Params() []*Param
	SetArena(a *tensor.Arena)
	SetWorkers(n int)
}

// SharedNet is the skeleton every weight-sharing super-network embeds:
// its one list of layers, activations included, the arena its passes
// draw from and the BCE loss over its logits. Params, SetArena and
// SetWorkers walk the list, so a listed layer gets the network's arena
// and core budget with every other.
type SharedNet struct {
	layers []SharedLayer
	params []*Param
	arena  *tensor.Arena
}

// List appends layers to the network's layer list, in Params order.
func (n *SharedNet) List(layers ...SharedLayer) {
	for _, l := range layers {
		n.layers = append(n.layers, l)
		n.params = append(n.params, l.Params()...)
	}
}

// Params returns every shared parameter in list order.
func (n *SharedNet) Params() []*Param { return n.params }

// SetArena binds an arena to the network and every listed layer. All
// intermediates of a pass — the logits gradient included — become
// arena-owned: they stay valid through Backward and are recycled by the
// next Forward of any network bound to the same arena, so a caller that
// keeps an output across passes must Clone it. nil reverts to per-call
// heap allocation.
func (n *SharedNet) SetArena(a *tensor.Arena) {
	n.arena = a
	for _, l := range n.layers {
		l.SetArena(a)
	}
}

// SetWorkers threads an intra-pass parallelism bound through every
// listed layer. The bound is one shard's share of the search's core
// budget; every layer's parallel path is bit-identical to its serial
// loop, so the setting never changes a trajectory. 0 or 1 keeps the
// serial layer loops.
func (n *SharedNet) SetWorkers(k int) {
	for _, l := range n.layers {
		l.SetWorkers(k)
	}
}

// Arena returns the bound arena, nil when passes allocate on the heap.
func (n *SharedNet) Arena() *tensor.Arena { return n.arena }

// BCELoss returns the BCE loss of the logits against the labels and the
// logits gradient, drawn from the bound arena: valid through Backward,
// recycled by the next Forward.
func (n *SharedNet) BCELoss(logits, labels *tensor.Matrix) (float64, *tensor.Matrix) {
	grad := n.arena.GetNoZero(logits.Rows, logits.Cols)
	return BCEWithLogits{}.EvalInto(logits, labels, grad), grad
}

// Dense is a fully connected layer: y = x·W + b, with x batch×in. It runs
// the masked affine stage over its whole weight without a bias and adds b
// after the k sweep rather than seeding it, so y is the rounded x·W plus
// b — the perf model's formula, pinned by TestDenseMatchesMatMulReference.
type Dense struct {
	W *Param // in×out
	B *Param // 1×out

	// Arena, when set, owns y and the dX of the Backward that follows;
	// they are valid until the arena's next Release. Nil falls back to
	// heap allocation.
	Arena *tensor.Arena

	stage affine // bias-less, over the whole of W
}

// NewDense returns a Glorot-initialized in→out dense layer.
func NewDense(in, out int, rng *tensor.RNG) *Dense {
	l := &Dense{
		W: NewParam(fmt.Sprintf("dense_w_%dx%d", in, out), tensor.GlorotUniform(in, out, rng)),
		B: NewParam(fmt.Sprintf("dense_b_%d", out), tensor.New(1, out)),
	}
	l.stage.init(l.W, nil)
	return l
}

// Forward computes x·W + b. The row loops fan out up to the shared
// pool's width; bits never depend on it.
func (l *Dense) Forward(x *tensor.Matrix) *tensor.Matrix {
	y := l.stage.forward(x, l.Arena, runtime.GOMAXPROCS(0))
	tensor.AddRowVector(y, l.B.Value)
	return y
}

// Backward accumulates dW = xᵀ·grad and db = Σ_rows grad (batch rows
// ascending) and returns dX = grad·Wᵀ.
func (l *Dense) Backward(grad *tensor.Matrix) *tensor.Matrix {
	dx := l.stage.backward(grad, l.Arena, runtime.GOMAXPROCS(0))
	bg := l.B.Grad.Data
	for i := 0; i < grad.Rows; i++ {
		tensor.Axpy(bg, 1, grad.Row(i))
	}
	l.B.Dirty = true
	return dx
}

// Params returns the weight and bias parameters.
func (l *Dense) Params() []*Param { return []*Param{l.W, l.B} }

// affine is the masked affine stage y = x·W[:in,:out] (+ b[:out]) that
// every weight-sharing dense layer is made of: MaskedDense is one stage,
// LowRankDense is two (U without a bias, then V with one). Inactive
// rows/columns of W neither contribute to the forward pass nor receive
// gradient, exactly as if they were masked to zero.
type affine struct {
	w, b      *Param // b nil: no bias term
	in, out   int    // active sub-matrix
	reluInput bool   // see LowRankDense.SetReLUInput

	// Operands of the pass in flight. The row loops read them from here so
	// fwdFn/bwdFn — the loops bound to this stage by parallelRows — need no
	// per-pass closure. The stage must not be copied once it has run: the
	// bound funcs hold its address.
	x, y, grad, dx *tensor.Matrix
	fwdFn, bwdFn   func(lo, hi int)
}

// init binds the stage to its parameters with the full matrix active.
func (a *affine) init(w, b *Param) {
	a.w, a.b = w, b
	a.in, a.out = w.Value.Rows, w.Value.Cols
}

// setActive selects the sub-matrix used by subsequent passes.
func (a *affine) setActive(in, out int) {
	if in <= 0 || in > a.w.Value.Rows || out <= 0 || out > a.w.Value.Cols {
		panic(fmt.Sprintf("nn: %s: active size %dx%d outside 1..%dx1..%d", a.w.Name, in, out, a.w.Value.Rows, a.w.Value.Cols))
	}
	a.in, a.out = in, out
}

// forward returns y (batch×out, drawn from arena) for x (batch×in) and
// caches x for backward.
func (a *affine) forward(x *tensor.Matrix, arena *tensor.Arena, workers int) *tensor.Matrix {
	if x.Cols != a.in {
		panic(fmt.Sprintf("nn: %s: input width %d != active in %d", a.w.Name, x.Cols, a.in))
	}
	y := arena.GetNoZero(x.Rows, a.out)
	a.x, a.y = x, y
	parallelRows(a, (*affine).forwardRows, &a.fwdFn, x.Rows, x.Rows*a.in*a.out, workers)
	a.y = nil
	return y
}

// forwardRows computes output rows [lo, hi). Batch rows are the parallel
// axis: each output row is written by exactly one worker and accumulates
// its k contributions in ascending order, with the zero-input skip decided
// per (i,k), so any row partition is bit-identical to the serial pass.
// One tensor.AffineRow call computes a whole output row, so the row stays
// in registers across the k sweep instead of round-tripping memory once
// per nonzero input.
func (a *affine) forwardRows(lo, hi int) {
	xd, xcols := a.x.Data, a.x.Cols
	yd, n := a.y.Data, a.out
	for i := lo; i < hi; i++ {
		y := yd[i*n : (i+1)*n]
		if a.b != nil {
			copy(y, a.b.Value.Data)
		} else {
			clear(y)
		}
		tensor.AffineRow(y, xd[i*xcols:i*xcols+a.in], a.w.Value.Data, a.w.Value.Cols)
	}
}

// backward accumulates dW and db for the active sub-matrix only and
// returns dX (batch×in, drawn from arena). The parallel axis is W rows,
// not batch rows: every batch row accumulates into the same W.Grad rows,
// so a batch partition would race, while a worker owning W rows [lo, hi)
// touches only those gradient rows and the matching dX columns. MarkRow
// mutates shared dedup state and may grow the packed gradient, so a
// row-tracked W has its rows marked in a serial ascending pre-pass and
// the workers only look their slots up; the bias sum stays a serial pass
// too.
func (a *affine) backward(grad *tensor.Matrix, arena *tensor.Arena, workers int) *tensor.Matrix {
	if a.x == nil {
		panic(fmt.Sprintf("nn: %s: Backward before Forward", a.w.Name))
	}
	checkGrad(a.w.Name, grad, a.x.Rows, a.out)
	if a.w.RowSparse {
		a.w.reserve(a.in)
		for k := 0; k < a.in; k++ {
			a.w.MarkRow(k)
		}
	}
	rows := a.x.Rows
	dx := arena.GetNoZero(rows, a.in)
	a.grad, a.dx = grad, dx
	parallelRows(a, (*affine).backwardRows, &a.bwdFn, a.in, rows*a.in*a.out, workers)
	a.grad, a.dx = nil, nil
	a.w.Dirty = true
	if a.b != nil {
		bg := a.b.Grad.Data[:a.out]
		for i := 0; i < rows; i++ {
			tensor.Axpy(bg, 1, grad.Row(i))
		}
		a.b.Dirty = true
	}
	return dx
}

// backwardRows runs the fused dW accumulate + dX dot for W rows [lo, hi)
// across the whole batch. W-row-outer, batch-row-inner keeps each
// value/gradient row pair cache-hot across the batch and streams it
// exactly once; W.Grad row k takes its batch contributions in ascending
// batch order and dX column k gets one write per batch row, so bits do
// not depend on the partition. One tensor.AffineGradRow call walks the
// batch for W row k: a zero input skips the dW row (it would add exactly
// zero) and, under reluInput, sets dX to +0, since the upstream ReLU mask
// discards dX there.
func (a *affine) backwardRows(lo, hi int) {
	xd, xcols := a.x.Data, a.x.Cols
	gd, gcols := a.grad.Data, a.grad.Cols
	dxd := a.dx.Data // batch×in, like x: column k has stride xcols
	wd, wcols := a.w.Value.Data, a.w.Value.Cols
	n, rows := a.out, a.x.Rows
	for k := lo; k < hi; k++ {
		tensor.AffineGradRow(a.w.gradRow(k)[:n], wd[k*wcols:k*wcols+n], gd, gcols, xd[k:], dxd[k:], xcols, rows, a.reluInput)
	}
}

// MaskedDense is the fine-grained weight-sharing dense layer of the DLRM
// super-network (Figure 3 ③): a single maxIn×maxOut weight matrix from
// which any activeIn×activeOut upper-left sub-matrix can be selected per
// search step.
type MaskedDense struct {
	W *Param // maxIn×maxOut
	B *Param // 1×maxOut

	// Arena, when set, owns the layer's output and gradient intermediates;
	// they are valid until the arena's next Release. Nil falls back to
	// heap allocation.
	Arena *tensor.Arena

	// Workers bounds the parallelism of the forward and backward passes
	// under the owning search's core budget (core.Config.Workers). 0 or 1
	// — the default — keeps the historical serial loops.
	Workers int

	stage affine
}

// NewMaskedDense returns a super-network dense layer sized for the largest
// candidate. Both active sizes start at the maximum.
func NewMaskedDense(maxIn, maxOut int, rng *tensor.RNG) *MaskedDense {
	l := &MaskedDense{
		W: NewParam(fmt.Sprintf("masked_w_%dx%d", maxIn, maxOut), tensor.GlorotUniform(maxIn, maxOut, rng)),
		B: NewParam(fmt.Sprintf("masked_b_%d", maxOut), tensor.New(1, maxOut)),
	}
	l.stage.init(l.W, l.B)
	return l
}

// SetActive selects the sub-matrix used by subsequent Forward/Backward
// calls. It panics if the requested size exceeds the allocated maximum.
func (l *MaskedDense) SetActive(in, out int) { l.stage.setActive(in, out) }

// Forward computes y = x·W[0:in,0:out] + b[0:out]. x must be batch×activeIn;
// the output is batch×activeOut.
func (l *MaskedDense) Forward(x *tensor.Matrix) *tensor.Matrix {
	return l.stage.forward(x, l.Arena, l.Workers)
}

// Backward accumulates gradients for the active sub-matrix only and
// returns dX (batch×activeIn).
func (l *MaskedDense) Backward(grad *tensor.Matrix) *tensor.Matrix {
	return l.stage.backward(grad, l.Arena, l.Workers)
}

// Params returns the full super-network weight and bias parameters.
func (l *MaskedDense) Params() []*Param { return []*Param{l.W, l.B} }

// SetArena and SetWorkers set Arena and Workers (SharedLayer).
func (l *MaskedDense) SetArena(a *tensor.Arena) { l.Arena = a }
func (l *MaskedDense) SetWorkers(n int)         { l.Workers = n }

// LowRankDense is the weight-shared low-rank factorized dense layer of the
// DLRM super-network (Figure 3 ④): y = (x·U[:, :r])·V[:r, :] + b where the
// rank r is searchable. The factors are sized for the maximum rank and
// shared across all rank candidates (fine-grained sharing: rank r reuses
// the first r columns/rows of the factors).
type LowRankDense struct {
	U *Param // maxIn×maxRank
	V *Param // maxRank×maxOut
	B *Param // 1×maxOut

	// Arena, when set, owns the layer's output and intermediates (incl.
	// the cached hidden activation, which must survive until Backward —
	// release the arena only between full forward/backward passes).
	Arena *tensor.Arena

	// Workers bounds the parallelism of the forward and backward passes
	// under the owning search's core budget (core.Config.Workers). 0 or 1
	// — the default — keeps the historical serial loops.
	Workers int

	u, v affine // h = x·U, then y = h·V + b
}

// SetReLUInput declares that the layer's input is the direct output of a
// ReLU whose backward pass consumes this layer's dX. Under that wiring an
// exactly-zero input element means the upstream mask discards dX at that
// position (ReLU backward selects, it does not multiply), so Backward may
// write zero there without computing the dot product. Only set this when
// the consumer of dX really is that ReLU's backward — with the flag off,
// Backward computes every dX element.
func (l *LowRankDense) SetReLUInput(on bool) { l.u.reluInput = on }

// NewLowRankDense returns a super-network low-rank layer sized for the
// largest candidate in every dimension.
//
// Initialization is calibrated so the composition U·V at full rank has the
// same elementwise variance as a Glorot-initialized maxIn×maxOut dense
// matrix: U is Glorot uniform; V is Gaussian with variance
// (maxIn+maxRank)/((maxIn+maxOut)·maxRank). Two independently-Glorot
// factors would compose to a map whose output variance shrinks with every
// layer, making deep factorized candidates untrainable.
func NewLowRankDense(maxIn, maxOut, maxRank int, rng *tensor.RNG) *LowRankDense {
	vStd := math.Sqrt(float64(maxIn+maxRank) / (float64(maxIn+maxOut) * float64(maxRank)))
	// A step writes gradient only into the active sub-block: U rows
	// [0,activeIn) and V rows [0,activeRank). Row tracking lets the
	// weight-update spine reduce, norm and step just those rows instead
	// of the factor's maximum extent, and stores only those.
	l := &LowRankDense{
		U: newRowParam(fmt.Sprintf("lowrank_u_%dx%d", maxIn, maxRank), tensor.GlorotUniform(maxIn, maxRank, rng)),
		V: newRowParam(fmt.Sprintf("lowrank_v_%dx%d", maxRank, maxOut), tensor.RandN(maxRank, maxOut, vStd, rng)),
		B: NewParam(fmt.Sprintf("lowrank_b_%d", maxOut), tensor.New(1, maxOut)),
	}
	l.u.init(l.U, nil)
	l.v.init(l.V, l.B)
	return l
}

// SetActive selects the active input width, output width and rank.
func (l *LowRankDense) SetActive(in, out, rank int) {
	l.u.setActive(in, rank)
	l.v.setActive(rank, out)
}

// Forward computes the two-stage product over the active sub-factors.
func (l *LowRankDense) Forward(x *tensor.Matrix) *tensor.Matrix {
	return l.v.forward(l.u.forward(x, l.Arena, l.Workers), l.Arena, l.Workers)
}

// Backward accumulates gradients for the active sub-factors and returns dX.
func (l *LowRankDense) Backward(grad *tensor.Matrix) *tensor.Matrix {
	return l.u.backward(l.v.backward(grad, l.Arena, l.Workers), l.Arena, l.Workers)
}

// Params returns both factors and the bias.
func (l *LowRankDense) Params() []*Param { return []*Param{l.U, l.V, l.B} }

// SetArena and SetWorkers set Arena and Workers (SharedLayer).
func (l *LowRankDense) SetArena(a *tensor.Arena) { l.Arena = a }
func (l *LowRankDense) SetWorkers(n int)         { l.Workers = n }
