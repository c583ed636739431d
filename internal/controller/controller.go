// Package controller implements the RL search controller of H₂O-NAS: a
// policy π over independent multinomial variables (one per search-space
// decision), REINFORCE policy-gradient updates with an exponential-moving-
// average reward baseline and entropy regularization, and cross-shard
// batched updates aggregating the architecture samples evaluated by all
// accelerator shards in one step (Section 4.2, stage 2).
package controller

import (
	"fmt"
	"math"

	"h2onas/internal/metrics"
	"h2onas/internal/nn"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

// Policy is a probability distribution over architectures: an independent
// categorical distribution per decision, parameterized by logits.
type Policy struct {
	Space  *space.Space
	Logits [][]float64
}

// NewPolicy returns the uniform policy over the space.
func NewPolicy(s *space.Space) *Policy {
	p := &Policy{Space: s, Logits: make([][]float64, len(s.Decisions))}
	for i, d := range s.Decisions {
		p.Logits[i] = make([]float64, d.Arity())
	}
	return p
}

// Probs returns the softmax probabilities of decision d.
func (p *Policy) Probs(d int) []float64 { return nn.Softmax(p.Logits[d]) }

// Sample draws an architecture from π.
func (p *Policy) Sample(rng *tensor.RNG) space.Assignment {
	a := make(space.Assignment, len(p.Logits))
	for d := range p.Logits {
		a[d] = rng.Categorical(p.Probs(d))
	}
	return a
}

// MostProbable returns the final architecture: "the most probable value
// for each categorical decision in π", chosen independently per decision.
func (p *Policy) MostProbable() space.Assignment {
	a := make(space.Assignment, len(p.Logits))
	for d, logits := range p.Logits {
		best := 0
		for j, l := range logits {
			if l > logits[best] {
				best = j
			}
			_ = l
		}
		a[d] = best
	}
	return a
}

// Entropy returns the policy entropy in nats (the sum over independent
// decisions). It starts at Σ log(arity) for the uniform policy and shrinks
// toward 0 as the search converges.
func (p *Policy) Entropy() float64 {
	var h float64
	for d := range p.Logits {
		for _, pr := range p.Probs(d) {
			if pr > 0 {
				h -= pr * math.Log(pr)
			}
		}
	}
	return h
}

// Confidence returns the mean (over decisions) probability of the most
// probable option — a convergence diagnostic in [1/maxArity, 1].
func (p *Policy) Confidence() float64 {
	if len(p.Logits) == 0 {
		return 1
	}
	var sum float64
	for d := range p.Logits {
		probs := p.Probs(d)
		best := 0.0
		for _, pr := range probs {
			if pr > best {
				best = pr
			}
		}
		sum += best
	}
	return sum / float64(len(p.Logits))
}

// Config holds controller hyperparameters.
type Config struct {
	// LearningRate for the REINFORCE logit update.
	LearningRate float64
	// BaselineMomentum is the EMA coefficient of the reward baseline.
	BaselineMomentum float64
	// EntropyWeight regularizes toward exploration (≥ 0).
	EntropyWeight float64
}

// DefaultConfig returns the hyperparameters used throughout the
// experiments.
func DefaultConfig() Config {
	return Config{LearningRate: 0.05, BaselineMomentum: 0.95, EntropyWeight: 1e-3}
}

// Controller couples a policy with its REINFORCE optimizer state.
type Controller struct {
	Policy *Policy
	Config Config

	// Metrics, when non-nil, receives per-update telemetry: the update
	// count, the EMA baseline, and the KL divergence KL(π_old ‖ π_new) of
	// each policy step — the policy-movement trend that, together with
	// entropy, diagnoses collapse (KL spikes) and stalls (KL ≈ 0 with
	// high entropy). KL is only computed when Metrics is enabled.
	Metrics *metrics.Registry

	baseline    float64
	baselineSet bool
	steps       int
}

// New returns a controller with a uniform initial policy.
func New(s *space.Space, cfg Config) *Controller {
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = DefaultConfig().LearningRate
	}
	if cfg.BaselineMomentum <= 0 || cfg.BaselineMomentum >= 1 {
		cfg.BaselineMomentum = DefaultConfig().BaselineMomentum
	}
	return &Controller{Policy: NewPolicy(s), Config: cfg}
}

// Baseline returns the current EMA reward baseline.
func (c *Controller) Baseline() float64 { return c.baseline }

// State is the REINFORCE optimizer state that lives outside the policy
// logits: the EMA reward baseline (and whether it has been initialized)
// plus the update count. Together with the policy logits it makes a
// controller fully restorable.
type State struct {
	Baseline    float64
	BaselineSet bool
	Steps       int64
}

// State captures the controller's optimizer state for checkpointing.
func (c *Controller) State() State {
	return State{Baseline: c.baseline, BaselineSet: c.baselineSet, Steps: int64(c.steps)}
}

// Restore overwrites the controller's optimizer state with a captured
// one. The caller restores the policy logits separately.
func (c *Controller) Restore(st State) {
	c.baseline = st.Baseline
	c.baselineSet = st.BaselineSet
	c.steps = int(st.Steps)
}

// Steps returns how many Update calls have been applied.
func (c *Controller) Steps() int { return c.steps }

// Update applies one cross-shard REINFORCE step: every shard contributes
// its sampled architecture and reward; the advantage is the reward minus
// the EMA baseline; the policy-gradient of log π is (1{chosen} − p).
// Entropy regularization nudges the logits toward exploration.
func (c *Controller) Update(samples []space.Assignment, rewards []float64) {
	if len(samples) != len(rewards) {
		panic(fmt.Sprintf("controller: %d samples but %d rewards", len(samples), len(rewards)))
	}
	if len(samples) == 0 {
		return
	}
	var mean float64
	for _, r := range rewards {
		mean += r
	}
	mean /= float64(len(rewards))
	if !c.baselineSet {
		c.baseline = mean
		c.baselineSet = true
	}

	lr := c.Config.LearningRate
	scale := lr / float64(len(samples))
	var kl float64
	for d := range c.Policy.Logits {
		probs := c.Policy.Probs(d)
		grad := make([]float64, len(probs))
		for s, a := range samples {
			adv := rewards[s] - c.baseline
			for j := range grad {
				indicator := 0.0
				if a[d] == j {
					indicator = 1
				}
				grad[j] += adv * (indicator - probs[j])
			}
		}
		logits := c.Policy.Logits[d]
		for j := range logits {
			logits[j] += scale * grad[j]
		}
		if c.Config.EntropyWeight > 0 {
			h := 0.0
			for _, pr := range probs {
				if pr > 0 {
					h -= pr * math.Log(pr)
				}
			}
			for j := range logits {
				if probs[j] > 0 {
					logits[j] += lr * c.Config.EntropyWeight * (-probs[j] * (math.Log(probs[j]) + h))
				}
			}
		}
		if c.Metrics.Enabled() {
			// probs still holds π_old for this decision; the logits have
			// just been stepped, so Probs(d) is π_new.
			next := c.Policy.Probs(d)
			for j, p := range probs {
				if p > 0 && next[j] > 0 {
					kl += p * math.Log(p/next[j])
				}
			}
		}
	}
	// Baseline updates after the policy step, using this step's mean.
	m := c.Config.BaselineMomentum
	c.baseline = m*c.baseline + (1-m)*mean
	c.steps++
	if c.Metrics.Enabled() {
		c.Metrics.Counter("controller_updates_total").Inc()
		c.Metrics.Gauge("controller_baseline").Set(c.baseline)
		c.Metrics.Gauge("controller_update_kl").Set(kl)
		c.Metrics.Histogram("controller_update_kl_nats").Observe(kl)
	}
}
