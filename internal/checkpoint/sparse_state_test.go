package checkpoint

import (
	"bytes"
	"fmt"
	"testing"

	"h2onas/internal/nn"
	"h2onas/internal/tensor"
)

// stateParams builds a param list from seed: dense params and row-tracked
// tables of assorted shapes. The same seed builds bit-identical values,
// as a super-network's constructor does.
func stateParams(seed uint64) []*nn.Param {
	rng := tensor.NewRNG(seed)
	params := make([]*nn.Param, 12)
	for i := range params {
		rows, cols := 1+rng.Intn(5), 1+rng.Intn(9)
		if i%2 == 0 {
			rows = 16 + rng.Intn(48)
		}
		params[i] = nn.NewParam(fmt.Sprintf("p%d", i), tensor.RandN(rows, cols, 1, rng))
		if i%2 == 0 {
			params[i].EnableRowTracking()
		}
	}
	return params
}

// stepState runs one spine step with gradients drawn from rng: each param
// is dirtied with probability 1/2, a table on a few random rows, so over
// a run some params are never stepped and most rows of a table stay
// untouched — the state a weight-sharing search leaves.
func stepState(spine *nn.Spine, params []*nn.Param, rng *tensor.RNG) {
	for _, p := range params {
		if rng.Intn(2) == 0 {
			continue
		}
		if p.RowSparse {
			cols := p.Grad.Cols
			for n := 1 + rng.Intn(4); n > 0; n-- {
				r := rng.Intn(p.Grad.Rows)
				for j := 0; j < cols; j++ {
					p.Grad.Data[r*cols+j] += rng.Norm()
				}
				p.MarkRow(r)
			}
		} else {
			for j := range p.Grad.Data {
				p.Grad.Data[j] = rng.Norm()
			}
		}
		p.Dirty = true
	}
	spine.Reduce(nil)
	spine.ClipStep()
}

// TestSparseStateResumesBitIdentically is the property a row-sparse
// snapshot rests on: for random row-sparse step sequences, exporting the
// optimizer, encoding and decoding the snapshot, and importing it onto
// fresh params built from the same seed continues exactly as the
// uninterrupted run does, bit for bit — also when the resumed run is
// interrupted and resumed again.
func TestSparseStateResumesBitIdentically(t *testing.T) {
	for trial := uint64(0); trial < 24; trial++ {
		seed := 1000 + trial
		rng := tensor.NewRNG(seed)
		legs := []int{1 + rng.Intn(12), 1 + rng.Intn(12), 1 + rng.Intn(12)}

		golden := stateParams(seed)
		goldenSpine := nn.NewSpine(golden, nn.NewAdam(0.01), 5)
		goldenRNG := tensor.NewRNG(seed * 7)
		resumed := stateParams(seed)
		resumedOpt := nn.NewAdam(0.01)
		resumedSpine := nn.NewSpine(resumed, resumedOpt, 5)
		resumedRNG := tensor.NewRNG(seed * 7)
		for leg, steps := range legs {
			if leg > 0 {
				data := EncodeBytes(&Snapshot{Adam: resumedOpt.Export(resumed)})
				snap, err := Decode(bytes.NewReader(data))
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				resumed = stateParams(seed)
				resumedOpt = nn.NewAdam(0.01)
				if err := resumedOpt.Import(resumed, snap.Adam); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				resumedSpine = nn.NewSpine(resumed, resumedOpt, 5)
			}
			for i := 0; i < steps; i++ {
				stepState(goldenSpine, golden, goldenRNG)
				stepState(resumedSpine, resumed, resumedRNG)
			}
		}
		for i := range golden {
			for j, v := range golden[i].Value.Data {
				if got := resumed[i].Value.Data[j]; got != v {
					t.Fatalf("trial %d (legs %v): param %d value %d = %v, uninterrupted %v", trial, legs, i, j, got, v)
				}
			}
		}
	}
}
