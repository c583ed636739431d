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
	"h2onas/internal/wire"
)

// Policy is a probability distribution over architectures: an independent
// categorical distribution per decision, parameterized by logits. A Policy
// is not safe for concurrent use.
type Policy struct {
	Space  *space.Space
	Logits [][]float64

	// probs[d] is the softmax of from[d], a copy of the logits it was
	// computed from: Probs recomputes it only once Logits[d] has changed.
	probs, from [][]float64
}

// NewPolicy returns the uniform policy over the space.
func NewPolicy(s *space.Space) *Policy {
	n := len(s.Decisions)
	p := &Policy{Space: s, Logits: make([][]float64, n), probs: make([][]float64, n), from: make([][]float64, n)}
	for i, d := range s.Decisions {
		p.Logits[i] = make([]float64, d.Arity())
	}
	return p
}

// Probs returns the softmax probabilities of decision d. The slice belongs
// to the policy: it holds until decision d's logits next change, and the
// caller must not modify it.
func (p *Policy) Probs(d int) []float64 {
	logits := p.Logits[d]
	if !sameBits(logits, p.from[d]) {
		p.from[d] = append(p.from[d][:0], logits...)
		p.probs[d] = append(p.probs[d][:0], logits...) // sized; SoftmaxInto overwrites
		nn.SoftmaxInto(logits, p.probs[d])
	}
	return p.probs[d]
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

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
		}
		a[d] = best
	}
	return a
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

// Controller couples a policy with its REINFORCE optimizer state. It is
// the paper's search strategy: it satisfies core.Strategy directly.
type Controller struct {
	Policy *Policy
	Config Config

	// reg, when non-nil, receives per-update telemetry: the update
	// count, the EMA baseline, and the KL divergence KL(π_old ‖ π_new) of
	// each policy step — the policy-movement trend that, together with
	// entropy, diagnoses collapse (KL spikes) and stalls (KL ≈ 0 with
	// high entropy). KL is only computed when reg is enabled.
	reg *metrics.Registry

	baseline    float64
	baselineSet bool
	steps       int

	// Update's per-decision scratch: the policy gradient and, for the KL
	// term, π_new (which must not share the policy's π_old buffer).
	grad, next []float64
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

// Name is the strategy's identity in checkpoint fingerprints.
func (c *Controller) Name() string { return "reinforce" }

// SetMetrics sets the registry that receives the update telemetry.
func (c *Controller) SetMetrics(m *metrics.Registry) { c.reg = m }

// Sample draws from π. Warm-up steps sample the (still uniform) policy
// too.
func (c *Controller) Sample(rng *tensor.RNG, warmup bool) space.Assignment {
	return c.Policy.Sample(rng)
}

// Best returns π's most probable architecture.
func (c *Controller) Best() space.Assignment { return c.Policy.MostProbable() }

// Diagnostics returns the policy entropy in nats (the sum over
// independent decisions: Σ log(arity) for the uniform policy, shrinking
// toward 0 as the search converges) and its confidence, the mean over
// decisions of the most probable option's probability, in
// [1/maxArity, 1].
func (c *Controller) Diagnostics() (entropy, confidence float64) {
	p := c.Policy
	if len(p.Logits) == 0 {
		return 0, 1
	}
	for d := range p.Logits {
		best := 0.0
		for _, pr := range p.Probs(d) {
			if pr > 0 {
				entropy -= pr * math.Log(pr)
			}
			if pr > best {
				best = pr
			}
		}
		confidence += best
	}
	return entropy, confidence / float64(len(p.Logits))
}

// StateBytes serializes the policy logits and the optimizer state: the
// EMA baseline, whether it is set, and the update count.
func (c *Controller) StateBytes() []byte {
	var e wire.Enc
	e.Mat(c.Policy.Logits)
	e.F64(c.baseline)
	e.Bool(c.baselineSet)
	e.U64(uint64(c.steps))
	return e.Buf
}

// RestoreState replaces the controller's state with a StateBytes blob
// whose logits fit the space.
func (c *Controller) RestoreState(data []byte) error {
	d := wire.NewDec(data)
	logits := d.Mat()
	baseline := d.F64()
	baselineSet := d.Bool()
	steps := int64(d.U64())
	if err := d.Finish(); err != nil {
		return fmt.Errorf("reinforce state: %w", err)
	}
	if len(logits) != len(c.Policy.Logits) {
		return fmt.Errorf("reinforce state has %d policy decisions, space has %d", len(logits), len(c.Policy.Logits))
	}
	for i, row := range logits {
		if len(row) != len(c.Policy.Logits[i]) {
			return fmt.Errorf("reinforce state decision %d has %d logits, space arity is %d", i, len(row), len(c.Policy.Logits[i]))
		}
	}
	for i, row := range logits {
		copy(c.Policy.Logits[i], row)
	}
	c.baseline, c.baselineSet, c.steps = baseline, baselineSet, int(steps)
	return nil
}

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
		grad := scratch(&c.grad, len(probs))
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
		if c.reg.Enabled() {
			// probs still holds π_old for this decision; the logits have
			// just been stepped, so their softmax is π_new.
			next := scratch(&c.next, len(logits))
			nn.SoftmaxInto(logits, next)
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
	if c.reg.Enabled() {
		c.reg.Counter("controller_updates_total").Inc()
		c.reg.Gauge("controller_baseline").Set(c.baseline)
		c.reg.Gauge("controller_update_kl").Set(kl)
		c.reg.Histogram("controller_update_kl_nats").Observe(kl)
	}
}

// scratch returns (*buf)[:n] zeroed, growing *buf when it is too short.
func scratch(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	s := (*buf)[:n]
	clear(s)
	return s
}
