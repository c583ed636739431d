package core

import (
	"fmt"
	"slices"

	"h2onas/internal/space"
	"h2onas/internal/tensor"
	"h2onas/internal/wire"
)

// EvolutionOpts configures the regularized-evolution strategy.
type EvolutionOpts struct {
	// Population is the number of live individuals (default 32).
	Population int
	// Tournament is the selection sample size per child (default 8,
	// clamped to Population).
	Tournament int
}

// withDefaults resolves zero fields.
func (o EvolutionOpts) withDefaults() EvolutionOpts {
	if o.Population <= 0 {
		o.Population = 32
	}
	if o.Tournament <= 0 {
		o.Tournament = 8
	}
	if o.Tournament > o.Population {
		o.Tournament = o.Population
	}
	return o
}

// mutationRate is the per-decision mutation probability: 1/#decisions,
// one mutation per child in expectation.
func mutationRate(sp *space.Space) float64 {
	if len(sp.Decisions) == 0 {
		return 0
	}
	return 1 / float64(len(sp.Decisions))
}

// scored is one evaluated individual.
type scored struct {
	a      space.Assignment
	reward float64
}

// Evolution is regularized (aging) evolution [Real et al. 2019] behind
// the Strategy interface: each child is the mutation of a tournament
// winner, evaluated against the shared super-network, and the population
// is a FIFO queue — the oldest individual retires on every admission,
// so even a one-time champion must keep re-proving its genes. Until the
// population fills, children are uniform random. The paper notes
// evolution needs rewards comparable across steps; weight sharing bends
// that (early rewards are scored by less-trained weights), which is
// exactly the effect the baseline battery measures.
type Evolution struct {
	sp   *space.Space
	opts EvolutionOpts

	pop []scored
	inc incumbent
}

// NewEvolution returns the regularized-evolution strategy over the space.
func NewEvolution(sp *space.Space, opts EvolutionOpts) *Evolution {
	return &Evolution{sp: sp, opts: opts.withDefaults()}
}

// Name embeds the trajectory-affecting hyperparameters, so resuming
// under a differently configured evolution is refused by the fingerprint.
func (e *Evolution) Name() string {
	return fmt.Sprintf("evolution/p%d/t%d/m%g", e.opts.Population, e.opts.Tournament, mutationRate(e.sp))
}

// Sample seeds the population with uniform random candidates, then
// breeds the mutation of a tournament winner. Warmup steps sample
// uniformly without touching the population — their evaluations never
// reach Update.
func (e *Evolution) Sample(rng *tensor.RNG, warmup bool) space.Assignment {
	if warmup || len(e.pop) < e.opts.Population {
		return RandomAssignment(e.sp, rng)
	}
	return mutate(e.sp, e.tournament(rng), rng)
}

// tournament returns the genes of the best of a Tournament-sized random
// sample of the population; ties keep the earlier draw.
func (e *Evolution) tournament(rng *tensor.RNG) space.Assignment {
	parent := e.pop[rng.Intn(len(e.pop))]
	for s := 1; s < e.opts.Tournament; s++ {
		other := e.pop[rng.Intn(len(e.pop))]
		if other.reward > parent.reward {
			parent = other
		}
	}
	return parent.a
}

// Update admits the step's evaluated children in shard order, retiring
// the oldest individual for each admission once the population is full.
func (e *Evolution) Update(samples []space.Assignment, rewards []float64) {
	for i, a := range samples {
		e.pop = append(e.pop, scored{a: slices.Clone(a), reward: rewards[i]})
		if len(e.pop) > e.opts.Population {
			e.pop = e.pop[1:]
		}
		e.inc.observe(a, rewards[i])
	}
}

// Best returns the best-reward individual ever evaluated (regularized
// evolution's standard report), not merely the best still alive.
func (e *Evolution) Best() space.Assignment {
	if a, ok := e.inc.get(); ok {
		return a
	}
	return make(space.Assignment, len(e.sp.Decisions))
}

// Diagnostics measure the live population's per-decision concentration:
// entropy falls and confidence rises as a lineage takes over — the
// evolutionary analogue of policy convergence.
func (e *Evolution) Diagnostics() (entropy, confidence float64) {
	return empiricalDiag(e.sp, e.pop, func(c *scored) space.Assignment { return c.a })
}

func (e *Evolution) StateBytes() []byte {
	var enc wire.Enc
	enc.U32(uint32(len(e.pop)))
	for _, c := range e.pop {
		encodeAssignment(&enc, c.a)
		enc.F64(c.reward)
	}
	e.inc.encode(&enc)
	return enc.Buf
}

func (e *Evolution) RestoreState(data []byte) error {
	d := wire.NewDec(data)
	n := int(d.U32())
	var pop []scored
	if d.Count(n, 12, "population") { // ≥ 4 (len) + 8 (reward) bytes each
		pop = make([]scored, n)
		for i := range pop {
			pop[i] = scored{a: decodeAssignment(d), reward: d.F64()}
		}
	}
	inc := decodeIncumbent(d)
	if err := d.Finish(); err != nil {
		return fmt.Errorf("evolution state: %w", err)
	}
	if n > e.opts.Population {
		return fmt.Errorf("evolution state population %d exceeds configured size %d", n, e.opts.Population)
	}
	for i, c := range pop {
		if c.a == nil {
			return fmt.Errorf("evolution state individual %d is nil", i)
		}
		if err := e.sp.Validate(c.a); err != nil {
			return fmt.Errorf("evolution state individual %d: %w", i, err)
		}
	}
	if err := inc.validate(e.sp); err != nil {
		return fmt.Errorf("evolution state incumbent: %w", err)
	}
	e.pop, e.inc = pop, inc
	return nil
}

// mutate flips each decision to a uniformly random other option with
// probability mutationRate, guaranteeing at least one mutation.
func mutate(sp *space.Space, a space.Assignment, rng *tensor.RNG) space.Assignment {
	rate := mutationRate(sp)
	out := slices.Clone(a)
	mutated := false
	for i, d := range sp.Decisions {
		if d.Arity() < 2 {
			continue
		}
		if rng.Float64() < rate {
			out[i] = otherOption(d.Arity(), out[i], rng)
			mutated = true
		}
	}
	if !mutated {
		for {
			i := rng.Intn(len(sp.Decisions))
			if sp.Decisions[i].Arity() < 2 {
				continue
			}
			out[i] = otherOption(sp.Decisions[i].Arity(), out[i], rng)
			break
		}
	}
	return out
}

func otherOption(arity, current int, rng *tensor.RNG) int {
	v := rng.Intn(arity - 1)
	if v >= current {
		v++
	}
	return v
}
