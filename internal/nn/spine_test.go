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
		copy(q.Grad.Data, p.Grad.Data)
		q.Dirty = p.Dirty
		if p.RowSparse {
			q.EnableRowTracking()
			for _, r := range p.DirtyRows {
				q.MarkRow(int(r))
			}
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
			cols := p.Grad.Cols
			touched := 1 + rng.Intn(p.Grad.Rows/2+1)
			for n := 0; n < touched; n++ {
				r := rng.Intn(p.Grad.Rows)
				row := p.Grad.Data[r*cols : (r+1)*cols]
				for j := range row {
					row[j] += mag * rng.Norm()
				}
				p.MarkRow(r)
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
		for j := range want[i].Grad.Data {
			if got[i].Grad.Data[j] != want[i].Grad.Data[j] {
				t.Fatalf("%s: param %d grad[%d] = %v, want %v", what, i, j, got[i].Grad.Data[j], want[i].Grad.Data[j])
			}
		}
	}
}

// refReduce is a brute-force dense model of the cross-shard reduce:
// master.Grad[j] += inv·replica.Grad[j] for every element of every dirty
// replica param, ignoring all row bookkeeping. The spine's row-sparse
// fast path must produce bit-identical gradients because skipped rows
// are exactly zero.
func refReduce(master []*Param, replicas [][]*Param) {
	inv := 1 / float64(len(replicas))
	for i, p := range master {
		for _, rep := range replicas {
			rp := rep[i]
			if !rp.Dirty {
				continue
			}
			for j, g := range rp.Grad.Data {
				p.Grad.Data[j] += inv * g
			}
			p.Dirty = true
		}
	}
}

// refClipStep is an independent serial implementation of the spine's
// clip+lazy-Adam spec: per-param squared-norm partials combined in param
// order (rows in dirty-row order for row-sparse params), one global clip
// scale, then the Adam update applied to exactly the live gradient —
// dirty params, dirty rows — with moments elsewhere left frozen.
func refClipStep(params []*Param, opt *Adam, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		if !p.Dirty {
			continue
		}
		// Per-param partial first, then fold into the global sum — the
		// same association the spine uses, so norms are bit-identical.
		var psq float64
		if p.RowSparse && p.rowMark != nil {
			cols := p.Grad.Cols
			for _, r := range p.DirtyRows {
				row := p.Grad.Data[int(r)*cols : (int(r)+1)*cols]
				psq += tensor.Dot(row, row)
			}
		} else {
			psq = tensor.Dot(p.Grad.Data, p.Grad.Data)
		}
		sq += psq
	}
	norm := math.Sqrt(sq)
	scale := 1.0
	if maxNorm > 0 && norm > maxNorm {
		scale = maxNorm / (norm + 1e-12)
	}

	opt.t++
	c1 := 1 - math.Pow(opt.Beta1, float64(opt.t))
	c2 := 1 - math.Pow(opt.Beta2, float64(opt.t))
	update := func(p *Param, m, v *tensor.Matrix, lo, hi int) {
		for i := lo; i < hi; i++ {
			g := p.Grad.Data[i] * scale
			m.Data[i] = opt.Beta1*m.Data[i] + (1-opt.Beta1)*g
			v.Data[i] = opt.Beta2*v.Data[i] + (1-opt.Beta2)*g*g
			mhat := m.Data[i] / c1
			vhat := v.Data[i] / c2
			p.Value.Data[i] -= opt.LR * mhat / (math.Sqrt(vhat) + opt.Eps)
			p.Grad.Data[i] = 0
		}
	}
	for _, p := range params {
		if !p.Dirty {
			continue
		}
		rowPath := p.RowSparse && p.rowMark != nil
		if rowPath && len(p.DirtyRows) == 0 {
			p.Dirty = false
			continue
		}
		m := opt.m[p]
		if m == nil {
			if !rowPath && allZero(p.Grad.Data) {
				p.Dirty = false
				continue
			}
			m = opt.alloc(p)
		}
		v := opt.v[p]
		if rowPath {
			cols := p.Grad.Cols
			for _, r := range p.DirtyRows {
				update(p, m, v, int(r)*cols, (int(r)+1)*cols)
			}
			p.ClearRows()
		} else {
			update(p, m, v, 0, len(p.Grad.Data))
		}
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

	refMaster := cloneParams(master)
	refReplicas := cloneReplicas(replicas)
	refReduce(refMaster, refReplicas)

	spine := NewSpine(master, NewAdam(0.003), 10)
	spine.workers = 8
	wl := spine.Reduce(replicas)

	for i := range master {
		if master[i].Dirty != refMaster[i].Dirty {
			t.Fatalf("param %d dirty = %v, want %v", i, master[i].Dirty, refMaster[i].Dirty)
		}
		for j := range master[i].Grad.Data {
			if master[i].Grad.Data[j] != refMaster[i].Grad.Data[j] {
				t.Fatalf("param %d grad[%d] = %v, want %v", i, j, master[i].Grad.Data[j], refMaster[i].Grad.Data[j])
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
	// Row invariant on the master: any nonzero row of a row-sparse param
	// must be in its DirtyRows.
	for i, p := range master {
		if !p.RowSparse {
			continue
		}
		listed := map[int]bool{}
		for _, r := range p.DirtyRows {
			listed[int(r)] = true
		}
		cols := p.Grad.Cols
		for r := 0; r < p.Grad.Rows; r++ {
			row := p.Grad.Data[r*cols : (r+1)*cols]
			if !listed[r] && !allZero(row) {
				t.Fatalf("param %d row %d nonzero but not in DirtyRows", i, r)
			}
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
			refOpt := NewAdam(0.003)
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
					m, rm := opt.m[master[i]], refOpt.m[refMaster[i]]
					if (m == nil) != (rm == nil) {
						t.Fatalf("step %d: param %d moment allocation mismatch", step, i)
					}
					if m == nil {
						continue
					}
					for j := range m.Data {
						if m.Data[j] != rm.Data[j] {
							t.Fatalf("step %d: param %d m[%d] = %v, want %v", step, i, j, m.Data[j], rm.Data[j])
						}
						if opt.v[master[i]].Data[j] != refOpt.v[refMaster[i]].Data[j] {
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
				if lazyOpt.m[lazy[i]].Data[j] != eagerOpt.m[eager[i]].Data[j] || lazyOpt.v[lazy[i]].Data[j] != eagerOpt.v[eager[i]].Data[j] {
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
	if opt.m[p] == nil {
		t.Fatal("param 1 has no moments after a dirty step")
	}
	wantM := append([]float64(nil), opt.m[p].Data...)
	wantV := append([]float64(nil), opt.v[p].Data...)
	wantW := append([]float64(nil), p.Value.Data...)

	// Step 2: only param 0 dirty; param 1 must be bit-frozen.
	master[0].Grad.Data[0] = 0.5
	if master[0].RowSparse {
		master[0].MarkRow(0)
	}
	master[0].Dirty = true
	spine.Reduce(nil)
	spine.ClipStep()
	for j := range wantM {
		if opt.m[p].Data[j] != wantM[j] || opt.v[p].Data[j] != wantV[j] {
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
	if spine.opt.m[master[1]] != nil {
		t.Fatal("all-zero dirty param allocated moments")
	}
}
