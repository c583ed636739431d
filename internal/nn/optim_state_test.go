package nn

import (
	"reflect"
	"strings"
	"testing"

	"h2onas/internal/tensor"
)

// adamFixture builds two dense params and one row-tracked table from
// seed; the same seed always builds bit-identical values.
func adamFixture(seed uint64) ([]*Param, *tensor.RNG) {
	rng := tensor.NewRNG(seed)
	params := []*Param{
		NewParam("w", tensor.RandN(3, 4, 1, rng)),
		NewParam("b", tensor.RandN(1, 4, 1, rng)),
		NewParam("e", tensor.RandN(6, 2, 1, rng)),
	}
	params[2].EnableRowTracking()
	return params, rng
}

// fakeGrads writes a random gradient into every element of params, a
// row-tracked param's rows marked ascending.
func fakeGrads(params []*Param, rng *tensor.RNG) {
	for _, p := range params {
		for r := 0; r < p.Value.Rows; r++ {
			row := p.MarkRow(r)
			for i := range row {
				row[i] = rng.Norm()
			}
		}
	}
}

// TestAdamStateRestoreContinuesIdentically trains two optimizers on the
// same gradient sequence — one uninterrupted, one exported mid-run and
// imported onto a fresh network built from the same seed — and requires
// bit-identical parameters.
func TestAdamStateRestoreContinuesIdentically(t *testing.T) {
	golden, goldenRNG := adamFixture(3)
	goldenOpt := NewAdam(0.01)
	resumed, resumedRNG := adamFixture(3)
	resumedOpt := NewAdam(0.01)

	step := func(params []*Param, rng *tensor.RNG, opt *Adam) {
		fakeGrads(params, rng)
		opt.Step(params)
	}
	for i := 0; i < 5; i++ {
		step(golden, goldenRNG, goldenOpt)
		step(resumed, resumedRNG, resumedOpt)
	}

	// Interrupt the second run: export, rebuild network and optimizer
	// from scratch, import.
	st := resumedOpt.Export(resumed)
	resumed, _ = adamFixture(3)
	resumedOpt = NewAdam(0.01)
	if err := resumedOpt.Import(resumed, st); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 5; i++ {
		step(golden, goldenRNG, goldenOpt)
		step(resumed, resumedRNG, resumedOpt)
	}
	for i := range golden {
		for j := range golden[i].Value.Data {
			if golden[i].Value.Data[j] != resumed[i].Value.Data[j] {
				t.Fatalf("param %d value %d: golden %v, resumed %v",
					i, j, golden[i].Value.Data[j], resumed[i].Value.Data[j])
			}
		}
	}
}

// TestAdamStateOfFreshOptimizerIsZeroMoments pins that a fresh optimizer
// exports nothing: every param still holds its initialization value and
// zero moments, which a fresh network of the same seed reproduces.
func TestAdamStateOfFreshOptimizerIsZeroMoments(t *testing.T) {
	params, _ := adamFixture(1)
	st := NewAdam(0.01).Export(params)
	if st.T != 0 || len(st.Params) != len(params) {
		t.Fatalf("T = %d, %d param states; want 0 and %d", st.T, len(st.Params), len(params))
	}
	for i, ps := range st.Params {
		if ps.Kind != Unstepped || ps.Rows != nil || ps.W != nil || ps.M != nil || ps.V != nil {
			t.Fatalf("param %d of a fresh optimizer exported %+v", i, ps)
		}
	}
}

// TestAdamExportKinds steps a dense param whole and a row-tracked table
// row by row through the spine, and checks what Export carries: the
// dense param whole, the table's stepped rows ascending, and nothing
// for a param never stepped.
func TestAdamExportKinds(t *testing.T) {
	params, _ := adamFixture(4)
	opt := NewAdam(0.01)
	spine := NewSpine(params, opt, 0)
	for _, rows := range [][]int{{4, 1}, {1, 5}} {
		p := params[2]
		for _, r := range rows {
			p.MarkRow(r)[0] = float64(r) + 0.5
		}
		p.Dirty = true
		params[0].Grad.Data[3] = -1
		params[0].Dirty = true
		spine.Reduce(nil)
		spine.ClipStep()
	}
	st := opt.Export(params)
	if st.T != 2 {
		t.Fatalf("T = %d, want 2", st.T)
	}
	if w := st.Params[0]; w.Kind != Whole || len(w.W) != 12 || w.W[3] != params[0].Value.Data[3] {
		t.Fatalf("dense param exported %+v", w)
	}
	if b := st.Params[1]; b.Kind != Unstepped {
		t.Fatalf("unstepped param exported %+v", b)
	}
	e := st.Params[2]
	if e.Kind != SteppedRows || !reflect.DeepEqual(e.Rows, []int32{1, 4, 5}) || len(e.W) != 6 {
		t.Fatalf("table exported %+v, want rows [1 4 5]", e)
	}
	for k, r := range e.Rows {
		if e.W[2*k] != params[2].Value.Data[2*r] || e.M[2*k] == 0 || e.V[2*k] == 0 {
			t.Fatalf("row %d exported W/M/V %v/%v/%v", r, e.W[2*k], e.M[2*k], e.V[2*k])
		}
	}

	// A whole step of the table (Adam.Step) marks it whole from then on.
	fakeGrads(params, tensor.NewRNG(9))
	opt.Step(params)
	if k := opt.Export(params).Params[2].Kind; k != Whole {
		t.Fatalf("table stepped whole exports kind %d, want Whole", k)
	}
}

// TestAdamImportRejectsBeforeAnyWrite feeds Import every malformed state
// and a non-fresh optimizer: each must be refused before a single value
// or moment is written, so a clean import afterwards still works.
func TestAdamImportRejectsBeforeAnyWrite(t *testing.T) {
	params, rng := adamFixture(2)
	opt := NewAdam(0.01)
	spine := NewSpine(params, opt, 0)
	fakeGrads(params[:2], rng)
	params[0].Dirty, params[1].Dirty = true, true
	for _, r := range []int{0, 3, 5} {
		params[2].MarkRow(r)[1] = rng.Norm()
	}
	params[2].Dirty = true
	spine.Reduce(nil)
	spine.ClipStep()
	good := opt.Export(params)
	if good.Params[2].Kind != SteppedRows || len(good.Params[2].Rows) != 3 {
		t.Fatalf("fixture table exported %+v, want three stepped rows", good.Params[2])
	}

	// clone deep-copies good so each case mutates its own state.
	clone := func() AdamState {
		st := AdamState{T: good.T, Params: make([]ParamState, len(good.Params))}
		for i, ps := range good.Params {
			st.Params[i] = ParamState{
				Kind: ps.Kind,
				Rows: append([]int32(nil), ps.Rows...),
				W:    append([]float64(nil), ps.W...),
				M:    append([]float64(nil), ps.M...),
				V:    append([]float64(nil), ps.V...),
			}
		}
		return st
	}
	cases := map[string]func(*AdamState){
		"param count":      func(st *AdamState) { st.Params = st.Params[:2] },
		"negative step":    func(st *AdamState) { st.T = -1 },
		"unsorted rows":    func(st *AdamState) { r := st.Params[2].Rows; r[0], r[1] = r[1], r[0] },
		"duplicated rows":  func(st *AdamState) { st.Params[2].Rows[1] = st.Params[2].Rows[0] },
		"row out of range": func(st *AdamState) { st.Params[2].Rows[2] = 6 },
		"negative row":     func(st *AdamState) { st.Params[2].Rows[0] = -1 },
		"no rows":          func(st *AdamState) { p := &st.Params[2]; p.Rows, p.W, p.M, p.V = nil, nil, nil, nil },
		"rows on whole":    func(st *AdamState) { st.Params[0].Rows = []int32{0} },
		"short W":          func(st *AdamState) { st.Params[0].W = st.Params[0].W[:11] },
		"long M":           func(st *AdamState) { st.Params[2].M = append(st.Params[2].M, 0) },
		"short V":          func(st *AdamState) { st.Params[1].V = st.Params[1].V[:0] },
		"values on unstepped": func(st *AdamState) {
			st.Params[1] = ParamState{Kind: Unstepped, W: []float64{1}, M: []float64{1}, V: []float64{1}}
		},
		"unknown kind": func(st *AdamState) { st.Params[1].Kind = SteppedRows + 1 },
	}
	fresh, _ := adamFixture(2)
	for name, mutate := range cases {
		st := clone()
		mutate(&st)
		target, _ := adamFixture(2)
		o := NewAdam(0.01)
		if err := o.Import(target, st); err == nil {
			t.Fatalf("%s: import accepted", name)
		}
		if o.t != 0 || len(o.slots) != 0 {
			t.Fatalf("%s: rejected import changed the optimizer", name)
		}
		for i := range target {
			if !reflect.DeepEqual(target[i].Value.Data, fresh[i].Value.Data) {
				t.Fatalf("%s: rejected import wrote param %d", name, i)
			}
		}
	}

	// A stepped optimizer is not fresh, whatever the state.
	if err := opt.Import(params, good); err == nil || !strings.Contains(err.Error(), "fresh") {
		t.Fatalf("import onto a stepped optimizer: err = %v, want a fresh-optimizer refusal", err)
	}

	// The valid state still imports, and a re-export carries the same
	// state: Import re-marks the restored rows.
	target, _ := adamFixture(2)
	o := NewAdam(0.01)
	if err := o.Import(target, good); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o.Export(target), good) {
		t.Fatal("re-export of an imported state differs from it")
	}
}
