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
	Grad  *tensor.Matrix

	// Dirty is set by layer Backward methods when they accumulate into
	// Grad, and cleared by ZeroGrad/ZeroGrads. The contract is an
	// invariant — Dirty unset ⇒ Grad is exactly zero — that gradient
	// reducers, ZeroGrad, and the optimizers exploit to skip full-size
	// passes over untouched parameters (e.g. inactive embedding tables on
	// a shard, or dropped shards). Any code that writes Grad outside a
	// layer Backward must set Dirty itself or the skip paths will treat
	// the gradient as zero.
	Dirty bool

	// RowSparse refines the Dirty invariant to row granularity for
	// scatter-written params (embedding tables): when set, every write
	// to a Grad row must be paired with MarkRow, and the invariant
	// becomes "a row not in DirtyRows is exactly zero". The coordinator
	// spine exploits this to reduce, norm, update and clear only the
	// rows a step actually touched — on a weight-sharing search the
	// overwhelming majority of embedding rows are untouched each step,
	// and walking them is pure memory traffic.
	RowSparse bool
	// DirtyRows lists the rows written since the last ClearRows, in
	// first-write order, deduplicated. Only meaningful when RowSparse.
	DirtyRows []int32

	// rowMark/rowEpoch implement O(1) dedup and O(1) clear: a row is
	// recorded iff its stamp differs from the current epoch, and
	// ClearRows bumps the epoch instead of rewriting the stamps.
	rowMark  []int32
	rowEpoch int32

	// lazy, when set, is the pending-row state of a lazily initialized
	// value (see lazyRows), shared by every param viewing that value.
	lazy *lazyRows
}

// NewParam allocates a parameter with a zeroed gradient of matching shape.
func NewParam(name string, value *tensor.Matrix) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Rows, value.Cols)}
}

// EnableRowTracking opts the param into row-granular dirty tracking
// (see RowSparse). The layer that owns the param must MarkRow every
// gradient row it writes from then on.
func (p *Param) EnableRowTracking() { p.RowSparse = true }

// MarkRow records row r as written since the last ClearRows. Duplicate
// marks are absorbed in O(1).
func (p *Param) MarkRow(r int) {
	if p.rowMark == nil {
		p.rowMark = make([]int32, p.Value.Rows)
		p.rowEpoch = 1
	}
	if p.rowMark[r] != p.rowEpoch {
		p.rowMark[r] = p.rowEpoch
		p.DirtyRows = append(p.DirtyRows, int32(r))
	}
}

// ClearRows empties the dirty-row worklist. The epoch bump invalidates
// every stamp without walking the mark array; the worklist keeps its
// capacity so steady-state steps allocate nothing.
func (p *Param) ClearRows() {
	p.DirtyRows = p.DirtyRows[:0]
	if p.rowMark != nil {
		p.rowEpoch++
	}
}

// ZeroGrad clears the accumulated gradient and the Dirty mark. A clean
// param's gradient is already zero by the Dirty invariant, so the memclr
// runs only for params that were actually written since the last clear —
// and, for row-sparse params, only over the rows actually written.
func (p *Param) ZeroGrad() {
	if !p.Dirty {
		return
	}
	if p.RowSparse && p.rowMark != nil {
		gd := p.Grad.Data
		cols := p.Grad.Cols
		for _, r := range p.DirtyRows {
			row := gd[int(r)*cols : (int(r)+1)*cols]
			for j := range row {
				row[j] = 0
			}
		}
		p.ClearRows()
	} else {
		p.Grad.Zero()
	}
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

// Layer is one differentiable stage. Forward caches what Backward needs;
// Backward accumulates parameter gradients (into Params' Grad) and returns
// the gradient with respect to the layer input.
type Layer interface {
	Forward(x *tensor.Matrix) *tensor.Matrix
	Backward(grad *tensor.Matrix) *tensor.Matrix
	Params() []*Param
}

// Dense is a fully connected layer: y = x·W + b, with x batch×in. It runs
// the masked affine stage over its whole weight without a bias and adds b
// after the k sweep rather than seeding it, so y is the rounded x·W plus
// b — the perf model's formula, pinned by TestDenseMatchesMatMulReference.
type Dense struct {
	W *Param // in×out
	B *Param // 1×out

	stage affine        // bias-less; bound to W on first use
	arena *tensor.Arena // y and dX of the pass in flight
}

// NewDense returns a Glorot-initialized in→out dense layer.
func NewDense(in, out int, rng *tensor.RNG) *Dense {
	return &Dense{
		W: NewParam(fmt.Sprintf("dense_w_%dx%d", in, out), tensor.GlorotUniform(in, out, rng)),
		B: NewParam(fmt.Sprintf("dense_b_%d", out), tensor.New(1, out)),
	}
}

// bind returns the layer's stage, binding it to W the first time, so a
// Dense built as a struct literal works like one from NewDense.
func (l *Dense) bind() *affine {
	if l.stage.w != l.W {
		l.stage.init(l.W, nil)
	}
	return &l.stage
}

// Forward computes x·W + b. The row loops fan out up to the shared
// pool's width; bits never depend on it. y, and the dX of the Backward
// that follows, stay valid until the layer's next Forward, which hands
// them back to the shared matrix pool, so the layer keeps no batch-sized
// buffers between passes and a training loop does not churn the heap.
func (l *Dense) Forward(x *tensor.Matrix) *tensor.Matrix {
	if l.arena == nil {
		l.arena = tensor.NewArena()
	}
	l.arena.Drain()
	y := l.bind().forward(x, l.arena, runtime.GOMAXPROCS(0))
	tensor.AddRowVector(y, l.B.Value)
	return y
}

// Backward accumulates dW = xᵀ·grad and db = Σ_rows grad (batch rows
// ascending) and returns dX = grad·Wᵀ.
func (l *Dense) Backward(grad *tensor.Matrix) *tensor.Matrix {
	dx := l.bind().backward(grad, l.arena, runtime.GOMAXPROCS(0))
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
// mutates shared dedup state, so a row-tracked W has its rows marked in a
// serial ascending pre-pass; the bias sum stays a serial pass too.
func (a *affine) backward(grad *tensor.Matrix, arena *tensor.Arena, workers int) *tensor.Matrix {
	if a.x == nil {
		panic(fmt.Sprintf("nn: %s: Backward before Forward", a.w.Name))
	}
	checkGrad(a.w.Name, grad, a.x.Rows, a.out)
	if a.w.RowSparse {
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
	wd, gwd, wcols := a.w.Value.Data, a.w.Grad.Data, a.w.Value.Cols
	n, rows := a.out, a.x.Rows
	for k := lo; k < hi; k++ {
		tensor.AffineGradRow(gwd[k*wcols:k*wcols+n], wd[k*wcols:k*wcols+n], gd, gcols, xd[k:], dxd[k:], xcols, rows, a.reluInput)
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
	l := &LowRankDense{
		U: NewParam(fmt.Sprintf("lowrank_u_%dx%d", maxIn, maxRank), tensor.GlorotUniform(maxIn, maxRank, rng)),
		V: NewParam(fmt.Sprintf("lowrank_v_%dx%d", maxRank, maxOut), tensor.RandN(maxRank, maxOut, vStd, rng)),
		B: NewParam(fmt.Sprintf("lowrank_b_%d", maxOut), tensor.New(1, maxOut)),
	}
	// A step writes gradient only into the active sub-block: U rows
	// [0,activeIn) and V rows [0,activeRank). Row tracking lets the
	// weight-update spine reduce, norm and step just those rows instead
	// of the factor's maximum extent.
	l.U.EnableRowTracking()
	l.V.EnableRowTracking()
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

// Sequential chains layers; the output of each feeds the next.
type Sequential struct {
	Layers []Layer
}

// NewSequential returns a container over layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward runs all layers in order.
func (s *Sequential) Forward(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward runs all layers' Backward in reverse order.
func (s *Sequential) Backward(grad *tensor.Matrix) *tensor.Matrix {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params returns all layers' parameters in order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
