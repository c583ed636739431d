package supernet

import (
	"reflect"
	"testing"

	"h2onas/internal/nn"
	"h2onas/internal/tensor"
)

// trainSpine runs steps search-shaped steps on sn — a replica's forward
// and backward on a random candidate, then the spine's reduce and
// clip+Adam step — and returns the optimizer. Embedding tables are
// stepped row by row, dense layers whole.
func trainSpine(t *testing.T, seed uint64, steps int) (*Supernet, *nn.Adam) {
	t.Helper()
	ds, sn, stream := newSmall(t, seed)
	rng := tensor.NewRNG(seed + 100)
	rep := sn.Replicate(rng)
	opt := nn.NewAdam(0.01)
	spine := nn.NewSpine(sn.Params(), opt, 10)
	for step := 0; step < steps; step++ {
		_, dout := rep.Loss(randomAssignment(ds, rng), stream.NextBatch(16))
		rep.Backward(dout)
		spine.Reduce([][]*nn.Param{rep.Params()})
		spine.ClipStep()
	}
	return sn, opt
}

// TestExportImportRoundTripOnSupernet exports a trained super-network's
// optimizer state and imports it onto a fresh one built from the same
// seed: every weight must match the trained network's, and the imported
// optimizer must export the identical state.
func TestExportImportRoundTripOnSupernet(t *testing.T) {
	trained, opt := trainSpine(t, 1, 3)
	st := opt.Export(trained.Params())
	var rowStates int
	for _, ps := range st.Params {
		if ps.Kind == nn.SteppedRows {
			rowStates++
		}
	}
	if rowStates == 0 {
		t.Fatal("no embedding table exported as stepped rows")
	}

	_, fresh, _ := newSmall(t, 1)
	imported := nn.NewAdam(0.01)
	if err := imported.Import(fresh.Params(), st); err != nil {
		t.Fatal(err)
	}
	// Rows nothing has read are still unwritten on both sides; write them
	// so the comparison covers every weight, not zeros against zeros.
	nn.MaterializeAll(fresh.Params())
	nn.MaterializeAll(trained.Params())
	for i, p := range fresh.Params() {
		if !reflect.DeepEqual(p.Value.Data, trained.Params()[i].Value.Data) {
			t.Fatalf("param %d (%s) differs from the trained network after import", i, p.Name)
		}
	}
	if !reflect.DeepEqual(imported.Export(fresh.Params()), st) {
		t.Fatal("the imported optimizer exports a different state")
	}
}

// TestLoadWeightsPropagatesToReplicas pins the property resume depends
// on: replicas share parameter storage with the master, so importing
// onto the master restores every replica in place.
func TestLoadWeightsPropagatesToReplicas(t *testing.T) {
	trained, opt := trainSpine(t, 2, 2)
	_, sn, _ := newSmall(t, 2)
	replica := sn.Replicate(tensor.NewRNG(3))
	if err := nn.NewAdam(0.01).Import(sn.Params(), opt.Export(trained.Params())); err != nil {
		t.Fatal(err)
	}
	// Materializing through the replica writes the master's storage: the
	// unread rows are shared too.
	nn.MaterializeAll(replica.Params())
	nn.MaterializeAll(trained.Params())
	for i, p := range replica.Params() {
		if !reflect.DeepEqual(p.Value.Data, trained.Params()[i].Value.Data) {
			t.Fatalf("replica param %d did not see the imported weights", i)
		}
	}
}

// TestLoadWeightsRejectsShapeMismatchAtomically pins that a state which
// mismatches the network — even only in its last param — is refused
// before anything is written.
func TestLoadWeightsRejectsShapeMismatchAtomically(t *testing.T) {
	trained, opt := trainSpine(t, 4, 2)
	st := opt.Export(trained.Params())
	_, sn, _ := newSmall(t, 4)
	_, untouched, _ := newSmall(t, 4)

	short := st
	short.Params = st.Params[:len(st.Params)-1]
	if err := nn.NewAdam(0.01).Import(sn.Params(), short); err == nil {
		t.Fatal("wrong parameter count accepted")
	}
	bad := st
	bad.Params = append([]nn.ParamState(nil), st.Params...)
	n := len(sn.Params()[len(bad.Params)-1].Value.Data) + 1 // one value too many
	bad.Params[len(bad.Params)-1] = nn.ParamState{Kind: nn.Whole, W: make([]float64, n), M: make([]float64, n), V: make([]float64, n)}
	if err := nn.NewAdam(0.01).Import(sn.Params(), bad); err == nil {
		t.Fatal("wrong parameter length accepted")
	}
	nn.MaterializeAll(sn.Params())
	nn.MaterializeAll(untouched.Params())
	for i, p := range sn.Params() {
		if !reflect.DeepEqual(p.Value.Data, untouched.Params()[i].Value.Data) {
			t.Fatalf("param %d changed by a rejected import", i)
		}
	}
}
