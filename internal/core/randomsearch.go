package core

import (
	"fmt"
	"slices"

	"h2onas/internal/space"
	"h2onas/internal/tensor"
	"h2onas/internal/wire"
)

// Random is random search with weight sharing (Li & Talwalkar,
// "Random Search and Reproducibility for NAS"): every shard evaluates a
// uniformly random candidate against the shared super-network, and the
// final architecture is the best-reward candidate ever evaluated. It is
// the floor every learned strategy must beat — under identical seeds,
// budgets and weight-sharing machinery, since it runs in the same loop.
type Random struct {
	sp       *space.Space
	inc      incumbent
	fallback space.Assignment
}

// NewRandomSearch returns the random-search strategy over the space.
func NewRandomSearch(sp *space.Space) *Random { return &Random{sp: sp} }

func (r *Random) Name() string { return "random" }

func (r *Random) Sample(rng *tensor.RNG, warmup bool) space.Assignment {
	a := RandomAssignment(r.sp, rng)
	if r.fallback == nil {
		r.fallback = slices.Clone(a)
	}
	return a
}

// Update keeps the incumbent.
func (r *Random) Update(samples []space.Assignment, rewards []float64) {
	for i, a := range samples {
		r.inc.observe(a, rewards[i])
	}
}

// Best returns the incumbent; before any feedback it falls back to the
// first sampled candidate (or the all-zeros assignment).
func (r *Random) Best() space.Assignment {
	if a, ok := r.inc.get(); ok {
		return a
	}
	if r.fallback != nil {
		return slices.Clone(r.fallback)
	}
	return make(space.Assignment, len(r.sp.Decisions))
}

// Diagnostics are the uniform distribution's — random search never
// concentrates.
func (r *Random) Diagnostics() (entropy, confidence float64) { return uniformDiag(r.sp) }

func (r *Random) StateBytes() []byte {
	var e wire.Enc
	r.inc.encode(&e)
	encodeAssignment(&e, r.fallback)
	return e.Buf
}

func (r *Random) RestoreState(data []byte) error {
	d := wire.NewDec(data)
	inc := decodeIncumbent(d)
	fallback := decodeAssignment(d)
	if err := d.Finish(); err != nil {
		return fmt.Errorf("random state: %w", err)
	}
	if err := inc.validate(r.sp); err != nil {
		return fmt.Errorf("random state incumbent: %w", err)
	}
	if err := validateAssignment(r.sp, fallback); err != nil {
		return fmt.Errorf("random state fallback: %w", err)
	}
	r.inc, r.fallback = inc, fallback
	return nil
}
