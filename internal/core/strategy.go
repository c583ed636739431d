package core

import (
	"fmt"
	"math"

	"h2onas/internal/controller"
	"h2onas/internal/metrics"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

// Strategy is the sample/update core of a search run — the plugin seam
// that separates *which candidates to try next* from the machinery that
// evaluates them (super-network forward/backward, shard transports, the
// spine's weight updates, checkpointing). Every strategy inherits the
// distributed and zero-alloc execution path for free; the NAS
// literature's recurring reproducibility failure is RL results without a
// strong same-budget baseline, so the baselines (random search with
// weight sharing, regularized evolution, successive halving) run behind
// exactly the same interface on exactly the same seeds.
//
// The determinism contract: a strategy's only source of randomness is the
// *tensor.RNG handed to Sample (the coordinator RNG, which is
// checkpointed), its Update must be a pure function of its current state
// and the (samples, rewards) slice, and StateBytes/RestoreState must
// round-trip every bit of mutable state. Together these make any
// strategy bit-deterministically resumable from a snapshot.
type Strategy interface {
	// Name is the strategy's stable identity, including any
	// trajectory-affecting hyperparameters. It is embedded in the
	// checkpoint fingerprint (v3), so resuming a snapshot under a
	// different strategy — or the same strategy differently configured —
	// is refused instead of silently diverging.
	Name() string
	// Sample draws the candidate one shard evaluates this step. The loop
	// calls it once per non-sandwich shard, in shard order, before the
	// fan-out; warmup marks weight-pretraining steps, whose evaluations
	// never reach Update.
	Sample(rng *tensor.RNG, warmup bool) space.Assignment
	// Update feeds back one step's evaluated candidates: samples[i]
	// earned rewards[i]. Dropped shards are excluded by the caller, so a
	// degraded step simply delivers fewer samples.
	Update(samples []space.Assignment, rewards []float64)
	// Best returns the strategy's current choice of final architecture.
	Best() space.Assignment
	// Diagnostics returns the per-step convergence diagnostics recorded
	// in StepInfo: policy entropy and mean peak probability for RL,
	// population concentration for the baselines.
	Diagnostics() (entropy, confidence float64)
	// StateBytes serializes the strategy's complete mutable state for
	// checkpointing; RestoreState replaces the state with a previously
	// serialized one, validating shape against the strategy's space.
	StateBytes() []byte
	RestoreState(data []byte) error
}

// strategyMetrics is implemented by strategies that export telemetry;
// the search loop propagates its registry through it.
type strategyMetrics interface{ SetMetrics(*metrics.Registry) }

// strategyFor resolves the run's strategy: cfg.Strategy when set, else
// the default REINFORCE controller built from cfg.Controller. The run's
// metrics registry is propagated either way.
func strategyFor(cfg *Config, sp *space.Space) Strategy {
	strat := cfg.Strategy
	if strat == nil {
		strat = NewReinforce(sp, cfg.Controller)
	}
	if sm, ok := strat.(strategyMetrics); ok {
		sm.SetMetrics(cfg.Metrics)
	}
	return strat
}

// StrategyByName maps a strategy name — the CLI's -strategy flag, a job
// spec's "strategy" field — to a fresh Strategy over sp, or nil for
// "reinforce" (the default controller, built from Config.Controller).
// evals is the run's fault-free count of evaluations reaching Update —
// per step, one per policy shard (every shard except the sandwich shard)
// in the weight-sharing engine, one per shard in the analytic loop — and
// is the budget successive halving plans its rungs over.
func StrategyByName(name string, sp *space.Space, evals int) (Strategy, error) {
	switch name {
	case "reinforce":
		return nil, nil
	case "random":
		return NewRandomSearch(sp), nil
	case "evolution":
		return NewEvolution(sp, EvolutionOpts{}), nil
	case "halving":
		sh, err := NewSuccessiveHalving(sp, HalvingOpts{Budget: evals})
		if err != nil {
			return nil, fmt.Errorf("halving strategy: %w", err)
		}
		return sh, nil
	default:
		return nil, fmt.Errorf("unknown strategy %q (want reinforce, random, evolution, or halving)", name)
	}
}

// NewReinforce returns the REINFORCE strategy over the space: the RL
// controller (policy gradient with an EMA baseline, the paper's search
// algorithm), which is the default strategy and the reference
// implementation (see TestEngineEquivalence).
func NewReinforce(sp *space.Space, cfg controller.Config) *controller.Controller {
	return controller.New(sp, cfg)
}

var _ Strategy = (*controller.Controller)(nil)

// uniformDiag returns the entropy and confidence of the uniform
// distribution over the space — the fixed diagnostics of strategies that
// sample uniformly (and the empty-population fallback of the rest).
func uniformDiag(sp *space.Space) (entropy, confidence float64) {
	for _, d := range sp.Decisions {
		entropy += math.Log(float64(d.Arity()))
		confidence += 1 / float64(d.Arity())
	}
	if n := len(sp.Decisions); n > 0 {
		confidence /= float64(n)
	} else {
		confidence = 1
	}
	return entropy, confidence
}

// empiricalDiag returns the entropy and mean peak probability of the
// per-decision empirical distribution over the genes of a population —
// the population-concentration diagnostics of evolution and halving.
func empiricalDiag[T any](sp *space.Space, pop []T, genes func(*T) space.Assignment) (entropy, confidence float64) {
	if len(pop) == 0 {
		return uniformDiag(sp)
	}
	n := float64(len(pop))
	for d, dec := range sp.Decisions {
		counts := make([]int, dec.Arity())
		for i := range pop {
			counts[genes(&pop[i])[d]]++
		}
		peak := 0.0
		for _, c := range counts {
			if c == 0 {
				continue
			}
			p := float64(c) / n
			entropy -= p * math.Log(p)
			if p > peak {
				peak = p
			}
		}
		confidence += peak
	}
	if n := len(sp.Decisions); n > 0 {
		confidence /= float64(n)
	} else {
		confidence = 1
	}
	return entropy, confidence
}
