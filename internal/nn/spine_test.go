package nn

import (
	"math"
	"testing"

	"h2onas/internal/tensor"
)

// spineParams builds n parameters with varied shapes and random values.
// Every third param is row-sparse, as embedding tables are on the search
// path.
func spineParams(n int, rng *tensor.RNG) []*Param {
	params := make([]*Param, n)
	for i := range params {
		rows := 1 + rng.Intn(7)
		cols := 1 + rng.Intn(23)
		if i%3 == 0 {
			rows = 8 + rng.Intn(32) // row-sparse params get more rows
		}
		v := tensor.New(rows, cols)
		for j := range v.Data {
			v.Data[j] = rng.Norm()
		}
		params[i] = NewParam("p", v)
		if i%3 == 0 {
			params[i].EnableRowTracking()
		}
	}
	return params
}

// cloneParams deep-copies params (values, grads, dirty flags, row state).
func cloneParams(src []*Param) []*Param {
	out := make([]*Param, len(src))
	for i, p := range src {
		v := tensor.New(p.Value.Rows, p.Value.Cols)
		copy(v.Data, p.Value.Data)
		q := NewParam(p.Name, v)
		q.Dirty = p.Dirty
		if p.RowSparse {
			q.EnableRowTracking()
			cols := p.Grad.Cols
			for k, r := range p.DirtyRows {
				copy(q.MarkRow(int(r)), p.Grad.Data[k*cols:(k+1)*cols])
			}
		} else {
			copy(q.Grad.Data, p.Grad.Data)
		}
		out[i] = q
	}
	return out
}

// cloneReplicas deep-copies a replica param-list set.
func cloneReplicas(src [][]*Param) [][]*Param {
	out := make([][]*Param, len(src))
	for i, rep := range src {
		out[i] = cloneParams(rep)
	}
	return out
}

// smearGrads writes random gradients into roughly density of the params,
// setting Dirty, with magnitudes scaled by mag. Row-sparse params get a
// random subset of rows written (and marked), mirroring an embedding
// scatter.
func smearGrads(params []*Param, rng *tensor.RNG, density, mag float64) {
	for _, p := range params {
		if rng.Float64() >= density {
			continue
		}
		if p.RowSparse {
			touched := 1 + rng.Intn(p.Value.Rows/2+1)
			for n := 0; n < touched; n++ {
				row := p.MarkRow(rng.Intn(p.Value.Rows))
				for j := range row {
					row[j] += mag * rng.Norm()
				}
			}
		} else {
			for j := range p.Grad.Data {
				p.Grad.Data[j] = mag * rng.Norm()
			}
		}
		p.Dirty = true
	}
}

func resetGrads(params []*Param) {
	for _, p := range params {
		p.Grad.Zero()
		p.ClearRows()
		p.Dirty = false
	}
}

func sameParams(t *testing.T, got, want []*Param, what string) {
	t.Helper()
	for i := range want {
		if got[i].Dirty != want[i].Dirty {
			t.Fatalf("%s: param %d dirty = %v, want %v", what, i, got[i].Dirty, want[i].Dirty)
		}
		for j := range want[i].Value.Data {
			if got[i].Value.Data[j] != want[i].Value.Data[j] {
				t.Fatalf("%s: param %d value[%d] = %v, want %v", what, i, j, got[i].Value.Data[j], want[i].Value.Data[j])
			}
		}
		g, w := denseGrad(got[i]), denseGrad(want[i])
		for j := range w {
			if g[j] != w[j] {
				t.Fatalf("%s: param %d grad[%d] = %v, want %v", what, i, j, g[j], w[j])
			}
		}
	}
}

// refReduce is a brute-force dense model of the cross-shard reduce: the
// master's gradient, laid out like its value, plus inv·replica.Grad[j]
// for every element of every dirty replica param, ignoring all row
// bookkeeping. The spine's packed path must produce bit-identical
// gradients because unwritten rows are exactly zero.
func refReduce(master []*Param, replicas [][]*Param) (grads [][]float64, dirty []bool) {
	inv := 1 / float64(len(replicas))
	for i, p := range master {
		g, d := denseGrad(p), p.Dirty
		for _, rep := range replicas {
			rp := rep[i]
			if !rp.Dirty {
				continue
			}
			for j, rg := range denseGrad(rp) {
				g[j] += inv * rg
			}
			d = true
		}
		grads, dirty = append(grads, g), append(dirty, d)
	}
	return grads, dirty
}

// refAdam is the dense model of the spine's optimizer state: moments laid
// out like each param's value, nil for a param never stepped.
type refAdam struct {
	t    int
	lr   float64
	m, v map[*Param][]float64
}

func newRefAdam(lr float64) *refAdam {
	return &refAdam{lr: lr, m: map[*Param][]float64{}, v: map[*Param][]float64{}}
}

// refClipStep is an independent serial implementation of the spine's
// clip+lazy-Adam spec over dense state: per-param squared-norm partials
// combined in param order (rows in dirty-row order for row-tracked
// params), one global clip scale, then the Adam update applied to exactly
// the live gradient — dirty params, dirty rows — with moments elsewhere
// left frozen.
func refClipStep(params []*Param, opt *refAdam, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		if !p.Dirty {
			continue
		}
		// Per-param partial first, then fold into the global sum — the
		// same association the spine uses, so norms are bit-identical.
		g := denseGrad(p)
		var psq float64
		if p.RowSparse {
			cols := p.Value.Cols
			for _, r := range p.DirtyRows {
				row := g[int(r)*cols : (int(r)+1)*cols]
				psq += tensor.Dot(row, row)
			}
		} else {
			psq = tensor.Dot(g, g)
		}
		sq += psq
	}
	norm := math.Sqrt(sq)
	scale := 1.0
	if maxNorm > 0 && norm > maxNorm {
		scale = maxNorm / (norm + 1e-12)
	}

	opt.t++
	b1, b2, lr, eps := 0.9, 0.999, opt.lr, 1e-8
	c1 := 1 - math.Pow(b1, float64(opt.t))
	c2 := 1 - math.Pow(b2, float64(opt.t))
	for _, p := range params {
		if !p.Dirty {
			continue
		}
		if p.RowSparse && len(p.DirtyRows) == 0 {
			p.Dirty = false
			continue
		}
		g := denseGrad(p)
		m, v := opt.m[p], opt.v[p]
		if m == nil {
			if !p.RowSparse && allZero(g) {
				p.Dirty = false
				continue
			}
			m, v = make([]float64, len(g)), make([]float64, len(g))
			opt.m[p], opt.v[p] = m, v
		}
		update := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				gi := g[i] * scale
				m[i] = b1*m[i] + (1-b1)*gi
				v[i] = b2*v[i] + (1-b2)*gi*gi
				mhat := m[i] / c1
				vhat := v[i] / c2
				p.Value.Data[i] -= lr * mhat / (math.Sqrt(vhat) + eps)
			}
		}
		if p.RowSparse {
			cols := p.Value.Cols
			for _, r := range p.DirtyRows {
				update(int(r)*cols, (int(r)+1)*cols)
			}
		} else {
			update(0, len(g))
		}
		clear(p.Grad.Data)
		p.ClearRows()
		p.Dirty = false
	}
	return norm
}

// TestSpineReduceMatchesDenseModel checks that the (row-sparse-aware)
// parallel reduce is bit-identical to the brute-force dense elementwise
// model, that replicas come back clean, and that the master's dirty-row
// worklists cover every nonzero gradient row.
func TestSpineReduceMatchesDenseModel(t *testing.T) {
	rng := tensor.NewRNG(41)
	master := spineParams(40, rng)
	resetGrads(master)
	replicas := make([][]*Param, 4)
	for i := range replicas {
		replicas[i] = cloneParams(master)
		smearGrads(replicas[i], rng, 0.5, 1)
	}

	wantGrads, wantDirty := refReduce(master, replicas)

	spine := NewSpine(master, NewAdam(0.003), 10)
	spine.workers = 8
	wl := spine.Reduce(replicas)

	for i := range master {
		if master[i].Dirty != wantDirty[i] {
			t.Fatalf("param %d dirty = %v, want %v", i, master[i].Dirty, wantDirty[i])
		}
		for j, g := range denseGrad(master[i]) {
			if g != wantGrads[i][j] {
				t.Fatalf("param %d grad[%d] = %v, want %v", i, j, g, wantGrads[i][j])
			}
		}
	}
	// Worklist is exactly the dirty params, in index order.
	k := 0
	for i, p := range master {
		if p.Dirty {
			if k >= len(wl) || wl[k] != i {
				t.Fatalf("worklist %v missing dirty param %d", wl, i)
			}
			k++
		}
	}
	if k != len(wl) {
		t.Fatalf("worklist %v has %d extra entries", wl, len(wl)-k)
	}
	// Packed invariant on the master: every slot past the ones in use is
	// zero.
	for i, p := range master {
		if p.RowSparse && !allZero(p.Grad.Data[len(p.liveGrad()):]) {
			t.Fatalf("param %d has a nonzero slot past its %d rows", i, len(p.DirtyRows))
		}
	}
	// Replicas are fully clean.
	for r := range replicas {
		for i, p := range replicas[r] {
			if p.Dirty || !allZero(p.Grad.Data) || len(p.DirtyRows) != 0 {
				t.Fatalf("replica %d param %d not clean after reduce", r, i)
			}
		}
	}
}

// TestSpineClipStepMatchesReference runs multi-step trajectories through
// Spine.Reduce+ClipStep and the independent serial reference, asserting
// bit-identical weights, gradients, norms and optimizer state throughout.
// Three regimes: clipping never triggered, always triggered, and sparse
// dirty sets that exercise the lazy skip paths.
func TestSpineClipStepMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name         string
		mag, density float64
	}{
		{"no-clip", 0.01, 0.6},
		{"clip", 25, 0.6},
		{"sparse", 5, 0.15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := tensor.NewRNG(97)
			master := spineParams(30, rng)
			resetGrads(master)
			refMaster := cloneParams(master)
			opt := NewAdam(0.003)
			refOpt := newRefAdam(0.003)
			spine := NewSpine(master, opt, 10)
			spine.workers = 8

			for step := 0; step < 6; step++ {
				replicas := make([][]*Param, 3)
				for i := range replicas {
					replicas[i] = cloneParams(master)
					resetGrads(replicas[i])
					smearGrads(replicas[i], rng, tc.density, tc.mag)
				}
				refReplicas := cloneReplicas(replicas)

				spine.Reduce(replicas)
				norm := spine.ClipStep()

				ReduceParamGrads(refMaster, refReplicas, nil)
				wantNorm := refClipStep(refMaster, refOpt, 10)

				if norm != wantNorm {
					t.Fatalf("step %d: norm = %v, want %v", step, norm, wantNorm)
				}
				sameParams(t, master, refMaster, "after fused step")
				if opt.t != refOpt.t {
					t.Fatalf("step %d: t = %d, want %d", step, opt.t, refOpt.t)
				}
				for i := range master {
					m, v := denseMoments(opt, master[i])
					rm, rv := refOpt.m[refMaster[i]], refOpt.v[refMaster[i]]
					if (m == nil) != (rm == nil) {
						t.Fatalf("step %d: param %d moment allocation mismatch", step, i)
					}
					for j := range m {
						if m[j] != rm[j] {
							t.Fatalf("step %d: param %d m[%d] = %v, want %v", step, i, j, m[j], rm[j])
						}
						if v[j] != rv[j] {
							t.Fatalf("step %d: param %d v[%d] mismatch", step, i, j)
						}
					}
				}
			}
		})
	}
}

// TestAdamStepMatchesSpineClipStep pins the one Adam arithmetic: on dense
// params that are dirty every step, with clipping off, the eager
// Adam.Step and the spine's lazy ClipStep are the same update, so weights
// and moments stay bit-identical step after step. Widths 1–19 run both
// the vector body and every tail of the row kernel.
func TestAdamStepMatchesSpineClipStep(t *testing.T) {
	rng := tensor.NewRNG(61)
	var eager []*Param
	for cols := 1; cols < 20; cols += 3 {
		eager = append(eager, NewParam("p", tensor.RandN(1+cols%3, cols, 1, rng)))
	}
	lazy := cloneParams(eager)
	eagerOpt, lazyOpt := NewAdam(0.01), NewAdam(0.01)
	spine := NewSpine(lazy, lazyOpt, 0)
	for step := 0; step < 5; step++ {
		for i, p := range eager {
			for j := range p.Grad.Data {
				p.Grad.Data[j] = 3 * rng.Norm()
			}
			copy(lazy[i].Grad.Data, p.Grad.Data)
			lazy[i].Dirty = true
		}
		eagerOpt.Step(eager)
		spine.Reduce(nil)
		spine.ClipStep()
		for i := range eager {
			for j := range eager[i].Value.Data {
				if math.Float64bits(lazy[i].Value.Data[j]) != math.Float64bits(eager[i].Value.Data[j]) {
					t.Fatalf("step %d: param %d value[%d] = %v (ClipStep), %v (Adam.Step)", step, i, j, lazy[i].Value.Data[j], eager[i].Value.Data[j])
				}
				if lazyOpt.slots[lazy[i]].m[j] != eagerOpt.slots[eager[i]].m[j] || lazyOpt.slots[lazy[i]].v[j] != eagerOpt.slots[eager[i]].v[j] {
					t.Fatalf("step %d: param %d moments at %d differ", step, i, j)
				}
			}
		}
	}
}

// TestSpineWorkerCountInvariance runs the same trajectory under
// workers=1 (the GOMAXPROCS=1 serial path) and workers=7, asserting
// bit-identical weights and norms — chunk boundaries must not matter.
func TestSpineWorkerCountInvariance(t *testing.T) {
	run := func(workers int) ([]*Param, []float64) {
		rng := tensor.NewRNG(1234)
		master := spineParams(25, rng)
		resetGrads(master)
		spine := NewSpine(master, NewAdam(0.01), 10)
		spine.workers = workers
		var norms []float64
		for step := 0; step < 5; step++ {
			replicas := make([][]*Param, 3)
			for i := range replicas {
				replicas[i] = cloneParams(master)
				resetGrads(replicas[i])
				smearGrads(replicas[i], rng, 0.5, 8)
			}
			spine.Reduce(replicas)
			norms = append(norms, spine.ClipStep())
		}
		return master, norms
	}
	serial, serialNorms := run(1)
	parallel, parallelNorms := run(7)
	for i := range serialNorms {
		if serialNorms[i] != parallelNorms[i] {
			t.Fatalf("step %d: norm %v (workers=7) != %v (workers=1)", i, parallelNorms[i], serialNorms[i])
		}
	}
	sameParams(t, parallel, serial, "workers=7 vs workers=1")
}

// TestSpineLazyAdamFreezesUntouchedMoments checks the lazy-update
// contract: a param stepped earlier but clean this step keeps its
// moments and weights bit-frozen, instead of receiving a decay update.
func TestSpineLazyAdamFreezesUntouchedMoments(t *testing.T) {
	rng := tensor.NewRNG(7)
	master := spineParams(6, rng)
	resetGrads(master)
	opt := NewAdam(0.003)
	spine := NewSpine(master, opt, 10)

	// Step 1: everything dirty.
	smearGrads(master, rng, 1.1, 1)
	spine.Reduce(nil)
	spine.ClipStep()
	p := master[1] // dense param, now stepped
	if opt.slots[p] == nil {
		t.Fatal("param 1 has no moments after a dirty step")
	}
	wantM := append([]float64(nil), opt.slots[p].m...)
	wantV := append([]float64(nil), opt.slots[p].v...)
	wantW := append([]float64(nil), p.Value.Data...)

	// Step 2: only param 0 dirty; param 1 must be bit-frozen.
	master[0].MarkRow(0)[0] = 0.5
	master[0].Dirty = true
	spine.Reduce(nil)
	spine.ClipStep()
	for j := range wantM {
		if opt.slots[p].m[j] != wantM[j] || opt.slots[p].v[j] != wantV[j] {
			t.Fatalf("moments of clean param changed at %d", j)
		}
		if p.Value.Data[j] != wantW[j] {
			t.Fatalf("weights of clean param changed at %d", j)
		}
	}
}

// TestSpineClipStepRestoresDirtyInvariant checks the post-step contract:
// every master param is clean with an exactly-zero gradient and an empty
// dirty-row worklist, including params that arrived dirty with an
// all-zero gradient.
func TestSpineClipStepRestoresDirtyInvariant(t *testing.T) {
	rng := tensor.NewRNG(5)
	master := spineParams(10, rng)
	resetGrads(master)
	spine := NewSpine(master, NewAdam(0.003), 10)
	smearGrads(master, rng, 0.5, 1)
	// A dense dirty param whose gradient is all zero (e.g. a reduce of
	// cancelling shards) must be skipped without allocating moments.
	master[1].Grad.Zero()
	master[1].Dirty = true
	// A row-sparse param dirty with no recorded rows has an exactly-zero
	// gradient by the row invariant; it too must be skipped.
	master[0].Grad.Zero()
	master[0].ClearRows()
	master[0].Dirty = true
	spine.Reduce(nil)
	spine.ClipStep()
	for i, p := range master {
		if p.Dirty {
			t.Fatalf("param %d still dirty after ClipStep", i)
		}
		if !allZero(p.Grad.Data) {
			t.Fatalf("param %d has nonzero gradient after ClipStep", i)
		}
		if len(p.DirtyRows) != 0 {
			t.Fatalf("param %d has %d dirty rows after ClipStep", i, len(p.DirtyRows))
		}
	}
	if spine.opt.slots[master[1]] != nil {
		t.Fatal("all-zero dirty param allocated moments")
	}
}
