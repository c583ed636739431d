package core

import (
	"fmt"

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
	sp *space.Space

	best     space.Assignment
	bestRw   float64
	bestSet  bool
	evals    int64
	entropy  float64
	confid   float64
	fallback space.Assignment
}

// NewRandomSearch returns the random-search strategy over the space.
func NewRandomSearch(sp *space.Space) *Random {
	r := &Random{sp: sp}
	r.entropy, r.confid = uniformDiag(sp)
	return r
}

func (r *Random) Name() string { return "random" }

func (r *Random) Sample(rng *tensor.RNG, warmup bool) space.Assignment {
	a := RandomAssignment(r.sp, rng)
	if r.fallback == nil {
		r.fallback = copyAssignment(a)
	}
	return a
}

// Update keeps the incumbent: a strictly greater reward replaces it, so
// ties resolve to the earliest evaluation and the incumbent is a
// deterministic function of the evaluation sequence.
func (r *Random) Update(samples []space.Assignment, rewards []float64) {
	for i, a := range samples {
		r.evals++
		if !r.bestSet || rewards[i] > r.bestRw {
			r.best = copyAssignment(a)
			r.bestRw = rewards[i]
			r.bestSet = true
		}
	}
}

// Best returns the incumbent; before any feedback it falls back to the
// first sampled candidate (or the all-zeros assignment).
func (r *Random) Best() space.Assignment {
	if r.bestSet {
		return copyAssignment(r.best)
	}
	if r.fallback != nil {
		return copyAssignment(r.fallback)
	}
	return make(space.Assignment, len(r.sp.Decisions))
}

// Entropy and Confidence are the uniform distribution's — random search
// never concentrates.
func (r *Random) Entropy() float64    { return r.entropy }
func (r *Random) Confidence() float64 { return r.confid }

func (r *Random) StateBytes() []byte {
	var e wire.Enc
	encodeAssignment(&e, r.best)
	e.F64(r.bestRw)
	e.Bool(r.bestSet)
	e.U64(uint64(r.evals))
	encodeAssignment(&e, r.fallback)
	return e.Buf
}

func (r *Random) RestoreState(data []byte) error {
	d := wire.NewDec(data)
	best := decodeAssignment(d)
	bestRw := d.F64()
	bestSet := d.Bool()
	evals := int64(d.U64())
	fallback := decodeAssignment(d)
	if err := d.Finish(); err != nil {
		return fmt.Errorf("random state: %w", err)
	}
	if err := validateAssignment(r.sp, best); err != nil {
		return fmt.Errorf("random state incumbent: %w", err)
	}
	if err := validateAssignment(r.sp, fallback); err != nil {
		return fmt.Errorf("random state fallback: %w", err)
	}
	r.best, r.bestRw, r.bestSet, r.evals, r.fallback = best, bestRw, bestSet, evals, fallback
	return nil
}
