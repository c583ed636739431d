package core

import (
	"math"

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
