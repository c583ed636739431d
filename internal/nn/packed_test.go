package nn

import (
	"math"
	"slices"
	"testing"

	"h2onas/internal/tensor"
)

// denseGrad returns p's gradient laid out like its value: a row-tracked
// param's slots scattered to their rows, every other row zero.
func denseGrad(p *Param) []float64 {
	if !p.RowSparse {
		return slices.Clone(p.Grad.Data)
	}
	cols := p.Value.Cols
	g := make([]float64, len(p.Value.Data))
	for k, r := range p.DirtyRows {
		copy(g[int(r)*cols:(int(r)+1)*cols], p.Grad.Data[k*cols:(k+1)*cols])
	}
	return g
}

// gradMatrix is denseGrad as a matrix of the value's shape.
func gradMatrix(p *Param) *tensor.Matrix {
	return &tensor.Matrix{Rows: p.Value.Rows, Cols: p.Value.Cols, Data: denseGrad(p)}
}

// denseMoments returns o's moments for p laid out like its value, zero
// for rows never stepped; nil, nil for a param o never stepped.
func denseMoments(o *Adam, p *Param) (m, v []float64) {
	sl := o.slots[p]
	if sl == nil {
		return nil, nil
	}
	if sl.slot == nil {
		return sl.m, sl.v
	}
	cols := p.Value.Cols
	m, v = make([]float64, len(p.Value.Data)), make([]float64, len(p.Value.Data))
	for r, s := range sl.slot {
		if s != 0 {
			bm, bv := o.block(sl, r, cols)
			copy(m[r*cols:], bm)
			copy(v[r*cols:], bv)
		}
	}
	return m, v
}

// refParam is one param of the dense reference the packed storage must
// match bit for bit: its gradient and moments laid out like its value,
// and for a row-tracked param the rows written this epoch in first-write
// order and the rows any step has updated.
type refParam struct {
	tracked    bool
	rows, cols int
	grad       []float64
	order      []int32
	dirty      bool
	m, v       []float64 // nil until stepped
	stepped    []bool
}

func newRefParams(params []*Param) []*refParam {
	ref := make([]*refParam, len(params))
	for i, p := range params {
		n := len(p.Value.Data)
		ref[i] = &refParam{tracked: p.RowSparse, rows: p.Value.Rows, cols: p.Value.Cols, grad: make([]float64, n), stepped: make([]bool, p.Value.Rows)}
	}
	return ref
}

// add accumulates s·vec into row r, recording a first write.
func (q *refParam) add(r int, s float64, vec []float64) {
	if q.tracked && !slices.Contains(q.order, int32(r)) {
		q.order = append(q.order, int32(r))
	}
	tensor.Axpy(q.grad[r*q.cols:(r+1)*q.cols], s, vec)
	q.dirty = true
}

func (q *refParam) clearGrad() {
	clear(q.grad)
	q.order, q.dirty = q.order[:0], false
}

// refReduceDense folds the dirty replicas into the master elementwise in
// replica order, the master's first writes following the replicas' in
// the same order, and clears the replicas.
func refReduceDense(master []*refParam, replicas [][]*refParam) {
	inv := 1 / float64(len(replicas))
	for i, q := range master {
		for _, rep := range replicas {
			rq := rep[i]
			if !rq.dirty {
				continue
			}
			for j, g := range rq.grad {
				q.grad[j] += inv * g
			}
			for _, r := range rq.order {
				if !slices.Contains(q.order, r) {
					q.order = append(q.order, r)
				}
			}
			q.dirty = true
			rq.clearGrad()
		}
	}
}

// refStep is the spine's clip+lazy-Adam step over the dense reference:
// per-param squared norms (row-tracked rows in first-write order) summed
// in param order, one clip scale, then Adam on exactly the written rows of
// the dirty params, values updated in w.
func refStep(ref []*refParam, w [][]float64, t int, lr, maxNorm float64) float64 {
	var sq float64
	for _, q := range ref {
		if !q.dirty {
			continue
		}
		var psq float64
		if q.tracked {
			for _, r := range q.order {
				row := q.grad[int(r)*q.cols : (int(r)+1)*q.cols]
				psq += tensor.Dot(row, row)
			}
		} else {
			psq = tensor.Dot(q.grad, q.grad)
		}
		sq += psq
	}
	norm := math.Sqrt(sq)
	scale := 1.0
	if maxNorm > 0 && norm > maxNorm {
		scale = maxNorm / (norm + 1e-12)
	}
	// Variables, not constants: 1-b1 must round at run time, as Adam's.
	b1, b2, eps := 0.9, 0.999, 1e-8
	c1, c2 := 1-math.Pow(b1, float64(t)), 1-math.Pow(b2, float64(t))
	for i, q := range ref {
		if !q.dirty || (q.tracked && len(q.order) == 0) || (q.m == nil && !q.tracked && allZero(q.grad)) {
			q.clearGrad()
			continue
		}
		if q.m == nil {
			q.m, q.v = make([]float64, len(q.grad)), make([]float64, len(q.grad))
		}
		rows := q.order
		if !q.tracked {
			rows = nil
			for r := 0; r < q.rows; r++ {
				rows = append(rows, int32(r))
			}
		}
		for _, r := range rows {
			q.stepped[r] = true
			for j := int(r) * q.cols; j < int(r+1)*q.cols; j++ {
				g := q.grad[j] * scale
				q.m[j] = b1*q.m[j] + (1-b1)*g
				q.v[j] = b2*q.v[j] + (1-b2)*g*g
				w[i][j] -= lr * (q.m[j] / c1) / (math.Sqrt(q.v[j]/c2) + eps)
			}
		}
		q.clearGrad()
	}
	return norm
}

// checkAgainstRef fails unless the packed params hold the reference's
// gradients, first-write orders and dirty flags, and every slot past the
// ones in use is zero.
func checkAgainstRef(t testing.TB, what string, params []*Param, ref []*refParam) {
	t.Helper()
	for i, p := range params {
		q := ref[i]
		if p.Dirty != q.dirty {
			t.Fatalf("%s: param %d dirty = %v, reference %v", what, i, p.Dirty, q.dirty)
		}
		if p.RowSparse && !slices.Equal(p.DirtyRows, q.order) {
			t.Fatalf("%s: param %d rows %v, reference %v", what, i, p.DirtyRows, q.order)
		}
		for j, g := range denseGrad(p) {
			if math.Float64bits(g) != math.Float64bits(q.grad[j]) {
				t.Fatalf("%s: param %d grad[%d] = %v, reference %v", what, i, j, g, q.grad[j])
			}
		}
		if p.RowSparse && !allZero(p.Grad.Data[len(p.liveGrad()):]) {
			t.Fatalf("%s: param %d has a nonzero slot past its %d rows", what, i, len(p.DirtyRows))
		}
	}
}

// packedFixture is a master of two row-tracked params and one dense one,
// its values materialized, with the dense reference's copy of them.
func packedFixture(rng *tensor.RNG) ([]*Param, [][]float64) {
	master := []*Param{
		newRowParam("e", tensor.RandN(12, 5, 1, rng)),
		newRowParam("u", tensor.RandN(9, 3, 1, rng)),
		NewParam("b", tensor.RandN(4, 6, 1, rng)),
	}
	w := make([][]float64, len(master))
	for i, p := range master {
		w[i] = slices.Clone(p.Value.Data)
	}
	return master, w
}

// replicaOf is a gradient replica of master: shared values, own packed
// gradients.
func replicaOf(master []*Param) []*Param {
	rep := make([]*Param, len(master))
	for i, p := range master {
		if p.RowSparse {
			rep[i] = newRowParam(p.Name, p.Value)
		} else {
			rep[i] = NewParam(p.Name, p.Value)
		}
	}
	return rep
}

// scatter writes n random row accumulations into p and its reference, rows
// drawn from the first hot rows so repeats are common.
func scatter(p *Param, q *refParam, rng *tensor.RNG, n, hot int) {
	vec := make([]float64, p.Value.Cols)
	for range n {
		r := rng.Intn(hot)
		for j := range vec {
			vec[j] = rng.Norm()
		}
		s := rng.Norm()
		tensor.Axpy(p.MarkRow(r), s, vec)
		p.Dirty = true
		q.add(r, s, vec)
	}
}

// densePatch lands a whole-param gradient on a clean row-tracked param
// the way a dense wire patch does: every row marked ascending, then one
// contiguous copy.
func densePatch(p *Param, q *refParam, rng *tensor.RNG) {
	vals := make([]float64, len(p.Value.Data))
	for j := range vals {
		vals[j] = rng.Norm()
	}
	for r := 0; r < p.Value.Rows; r++ {
		p.MarkRow(r)
		q.order = append(q.order, int32(r))
	}
	copy(p.Grad.Data, vals)
	copy(q.grad, vals)
	p.Dirty, q.dirty = true, true
}

// TestPackedRowsMatchDenseReference drives packed gradients and moments
// through what a search does to them — random mark orders with repeated
// rows on several replicas, one replica dropped after writing, a dense
// patch landing on a row-tracked param, then Reduce → ClipStep → Export
// — and requires every gradient, weight, norm, moment and exported byte
// to equal a dense reference's bit for bit.
func TestPackedRowsMatchDenseReference(t *testing.T) {
	rng := tensor.NewRNG(71)
	master, w := packedFixture(rng)
	ref := newRefParams(master)
	opt := NewAdam(0.01)
	spine := NewSpine(master, opt, 4)
	spine.workers = 3
	const nRep = 4
	reps := make([][]*Param, nRep)
	refReps := make([][]*refParam, nRep)
	for k := range reps {
		reps[k], refReps[k] = replicaOf(master), newRefParams(master)
	}
	for step := 1; step <= 8; step++ {
		dropped := step % nRep
		for k, rep := range reps {
			for i, p := range rep {
				switch q := refReps[k][i]; {
				case p.RowSparse && k == 1 && step%3 == 0:
					densePatch(p, q, rng)
				case p.RowSparse:
					scatter(p, q, rng, 1+rng.Intn(12), 1+rng.Intn(p.Value.Rows))
				case rng.Intn(2) == 0:
					scatter(p, q, rng, 3, p.Value.Rows)
				}
			}
			checkAgainstRef(t, "replica", rep, refReps[k])
		}
		// The dropped shard's gradient is discarded, as a retry does.
		ZeroGrads(reps[dropped])
		for _, q := range refReps[dropped] {
			q.clearGrad()
		}
		checkAgainstRef(t, "dropped replica", reps[dropped], refReps[dropped])
		var live [][]*Param
		var refLive [][]*refParam
		for k := range reps {
			if k != dropped {
				live, refLive = append(live, reps[k]), append(refLive, refReps[k])
			}
		}

		spine.Reduce(live)
		refReduceDense(ref, refLive)
		checkAgainstRef(t, "reduced master", master, ref)
		for k := range live {
			checkAgainstRef(t, "reduced replica", live[k], refLive[k])
		}

		norm := spine.ClipStep()
		if want := refStep(ref, w, step, 0.01, 4); math.Float64bits(norm) != math.Float64bits(want) {
			t.Fatalf("step %d: norm %v, reference %v", step, norm, want)
		}
		checkAgainstRef(t, "stepped master", master, ref)
		for i, p := range master {
			for j, x := range p.Value.Data {
				if math.Float64bits(x) != math.Float64bits(w[i][j]) {
					t.Fatalf("step %d: param %d value[%d] = %v, reference %v", step, i, j, x, w[i][j])
				}
			}
			m, v := denseMoments(opt, p)
			if (m == nil) != (ref[i].m == nil) {
				t.Fatalf("step %d: param %d has moments %v, reference %v", step, i, m != nil, ref[i].m != nil)
			}
			for j := range m {
				if math.Float64bits(m[j]) != math.Float64bits(ref[i].m[j]) || math.Float64bits(v[j]) != math.Float64bits(ref[i].v[j]) {
					t.Fatalf("step %d: param %d moments differ at %d", step, i, j)
				}
			}
		}
	}

	st := opt.Export(master)
	for i, ps := range st.Params {
		q := ref[i]
		var want ParamState
		switch {
		case q.m == nil:
		case !q.tracked:
			want = ParamState{Kind: Whole, W: w[i], M: q.m, V: q.v}
		default:
			want.Kind = SteppedRows
			for r, on := range q.stepped {
				if on {
					a, b := r*q.cols, (r+1)*q.cols
					want.Rows = append(want.Rows, int32(r))
					want.W = append(want.W, w[i][a:b]...)
					want.M = append(want.M, q.m[a:b]...)
					want.V = append(want.V, q.v[a:b]...)
				}
			}
		}
		if ps.Kind != want.Kind || !slices.Equal(ps.Rows, want.Rows) || !bitsEqual(ps.W, want.W) || !bitsEqual(ps.M, want.M) || !bitsEqual(ps.V, want.V) {
			t.Fatalf("param %d: export %+v, reference %+v", i, ps, want)
		}
	}
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// FuzzPackedRows runs arbitrary mark / accumulate / clear / reduce
// sequences on a master and two replicas, each step checked against the
// dense reference: the packed slots must always hold exactly the dense
// gradient's written rows, in first-write order, with zero slots beyond.
func FuzzPackedRows(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{0x10, 0x10, 0x10, 0x31, 0x42, 0x53, 0x64, 0x75, 0x86})
	f.Add([]byte{0xff, 0x00, 0xee, 0x11, 0xdd, 0x22, 0xcc, 0x33})
	f.Fuzz(func(t *testing.T, ops []byte) {
		rng := tensor.NewRNG(5)
		master, _ := packedFixture(rng)
		ref := newRefParams(master)
		reps := [][]*Param{replicaOf(master), replicaOf(master)}
		refReps := [][]*refParam{newRefParams(master), newRefParams(master)}
		vec := make([]float64, 8)
		for n, op := range ops {
			k, i := int(op>>7), int(op>>5&3)%len(master)
			p, q := reps[k][i], refReps[k][i]
			switch op & 3 {
			case 0, 1: // accumulate into a row, often one already written
				r := int(op>>2&7) % p.Value.Rows
				for j := range vec {
					vec[j] = float64(n+j) - 3.5
				}
				tensor.Axpy(p.MarkRow(r), 0.5, vec[:p.Value.Cols])
				p.Dirty = true
				q.add(r, 0.5, vec[:p.Value.Cols])
			case 2: // clear one replica
				ZeroGrads(reps[k])
				for _, rq := range refReps[k] {
					rq.clearGrad()
				}
			case 3: // reduce both replicas into the master, then clear it
				ReduceParamGrads(master, reps, nil)
				refReduceDense(ref, refReps)
				checkAgainstRef(t, "master", master, ref)
				if op&4 != 0 {
					ZeroGrads(master)
					for _, rq := range ref {
						rq.clearGrad()
					}
				}
			}
			for k := range reps {
				checkAgainstRef(t, "replica", reps[k], refReps[k])
			}
		}
	})
}
