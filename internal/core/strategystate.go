package core

import (
	"math"
	"slices"

	"h2onas/internal/space"
	"h2onas/internal/wire"
)

// Strategy state blobs are field sequences in the internal/wire codec. A
// blob travels inside the (checksummed, versioned) snapshot payload, so
// it carries no header of its own. These are the candidate helpers the
// strategies share.

// encodeAssignment writes a candidate as a length-prefixed int sequence;
// nil (no candidate yet) is distinguished from the empty assignment.
func encodeAssignment(e *wire.Enc, a space.Assignment) {
	if a == nil {
		e.U32(math.MaxUint32)
		return
	}
	e.Ints(a)
}

func decodeAssignment(d *wire.Dec) space.Assignment {
	n := d.U32()
	if d.Err() != nil || n == math.MaxUint32 {
		return nil
	}
	if !d.Count(int(n), 4, "assignment") {
		return nil
	}
	a := make(space.Assignment, int(n))
	for i := range a {
		a[i] = int(d.U32())
	}
	return a
}

// validateAssignment checks a decoded candidate against the space.
func validateAssignment(sp *space.Space, a space.Assignment) error {
	if a == nil {
		return nil
	}
	return sp.Validate(a)
}

// incumbent is the best-reward candidate a strategy has evaluated and
// the number of evaluations it has seen. A strictly greater reward
// replaces it, so ties resolve to the earliest evaluation and the
// incumbent is a deterministic function of the evaluation sequence.
type incumbent struct {
	best   space.Assignment
	reward float64
	set    bool
	evals  int64
}

// observe counts one evaluation: candidate a earned reward.
func (in *incumbent) observe(a space.Assignment, reward float64) {
	in.evals++
	if !in.set || reward > in.reward {
		in.best, in.reward, in.set = slices.Clone(a), reward, true
	}
}

// get returns a copy of the incumbent, and whether there is one.
func (in *incumbent) get() (space.Assignment, bool) { return slices.Clone(in.best), in.set }

// encode writes the incumbent as (best, reward, set, evals).
func (in *incumbent) encode(e *wire.Enc) {
	encodeAssignment(e, in.best)
	e.F64(in.reward)
	e.Bool(in.set)
	e.U64(uint64(in.evals))
}

// decodeIncumbent reads what encode wrote; the caller validates it once
// the decoder is finished.
func decodeIncumbent(d *wire.Dec) incumbent {
	return incumbent{best: decodeAssignment(d), reward: d.F64(), set: d.Bool(), evals: int64(d.U64())}
}

// validate checks the incumbent's candidate against the space.
func (in *incumbent) validate(sp *space.Space) error { return validateAssignment(sp, in.best) }
