package controller

import (
	"math"
	"testing"

	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

func twoDecisionSpace() *space.Space {
	return space.NewSpace("t",
		space.NewDecision("a", 1, 2, 3),
		space.NewDecision("b", 10, 20),
	)
}

func TestNewPolicyUniform(t *testing.T) {
	c := New(twoDecisionSpace(), DefaultConfig())
	probs := c.Policy.Probs(0)
	for _, pr := range probs {
		if math.Abs(pr-1.0/3) > 1e-12 {
			t.Fatalf("initial policy not uniform: %v", probs)
		}
	}
	wantH, wantC := math.Log(3)+math.Log(2), (1.0/3+1.0/2)/2
	if h, conf := c.Diagnostics(); math.Abs(h-wantH) > 1e-9 || math.Abs(conf-wantC) > 1e-12 {
		t.Fatalf("uniform diagnostics = %v, %v, want %v, %v", h, conf, wantH, wantC)
	}
}

func TestSampleRespectsDistribution(t *testing.T) {
	p := NewPolicy(twoDecisionSpace())
	p.Logits[1] = []float64{10, -10} // decision b: option 0 almost surely
	rng := tensor.NewRNG(1)
	for i := 0; i < 100; i++ {
		a := p.Sample(rng)
		if a[1] != 0 {
			t.Fatal("sampling ignored the logits")
		}
		if a[0] < 0 || a[0] > 2 {
			t.Fatal("sample out of range")
		}
	}
}

func TestMostProbable(t *testing.T) {
	p := NewPolicy(twoDecisionSpace())
	p.Logits[0] = []float64{0, 5, 1}
	p.Logits[1] = []float64{-1, 3}
	a := p.MostProbable()
	if a[0] != 1 || a[1] != 1 {
		t.Fatalf("MostProbable = %v", a)
	}
}

func TestUpdateMovesTowardRewardedOption(t *testing.T) {
	s := twoDecisionSpace()
	c := New(s, Config{LearningRate: 0.2, BaselineMomentum: 0.9})
	rng := tensor.NewRNG(7)
	// Reward option 2 of decision a and option 1 of decision b.
	for step := 0; step < 300; step++ {
		var samples []space.Assignment
		var rewards []float64
		for shard := 0; shard < 8; shard++ {
			a := c.Policy.Sample(rng)
			r := 0.0
			if a[0] == 2 {
				r += 1
			}
			if a[1] == 1 {
				r += 1
			}
			samples = append(samples, a)
			rewards = append(rewards, r)
		}
		c.Update(samples, rewards)
	}
	final := c.Policy.MostProbable()
	if final[0] != 2 || final[1] != 1 {
		t.Fatalf("controller converged to %v, want [2 1] (probs %v / %v)",
			final, c.Policy.Probs(0), c.Policy.Probs(1))
	}
	if _, conf := c.Diagnostics(); conf < 0.8 {
		t.Fatalf("confidence %v too low after convergence", conf)
	}
}

func TestUpdateWithConstantRewardsKeepsPolicy(t *testing.T) {
	// Constant rewards mean zero advantage after the first step: the
	// policy should stay near uniform (only entropy regularization acts,
	// which preserves uniformity).
	s := twoDecisionSpace()
	c := New(s, Config{LearningRate: 0.1, BaselineMomentum: 0.5, EntropyWeight: 0.01})
	rng := tensor.NewRNG(3)
	for step := 0; step < 100; step++ {
		var samples []space.Assignment
		var rewards []float64
		for shard := 0; shard < 4; shard++ {
			samples = append(samples, c.Policy.Sample(rng))
			rewards = append(rewards, 1.0)
		}
		c.Update(samples, rewards)
	}
	for _, pr := range c.Policy.Probs(0) {
		if math.Abs(pr-1.0/3) > 0.15 {
			t.Fatalf("policy drifted without signal: %v", c.Policy.Probs(0))
		}
	}
}

func TestEntropyRegularizationSlowsCollapse(t *testing.T) {
	run := func(entropyWeight float64) float64 {
		s := twoDecisionSpace()
		c := New(s, Config{LearningRate: 0.3, BaselineMomentum: 0.9, EntropyWeight: entropyWeight})
		rng := tensor.NewRNG(11)
		for step := 0; step < 60; step++ {
			var samples []space.Assignment
			var rewards []float64
			for shard := 0; shard < 4; shard++ {
				a := c.Policy.Sample(rng)
				r := 0.0
				if a[0] == 0 {
					r = 1
				}
				samples = append(samples, a)
				rewards = append(rewards, r)
			}
			c.Update(samples, rewards)
		}
		h, _ := c.Diagnostics()
		return h
	}
	if run(0.5) <= run(0) {
		t.Fatal("entropy regularization must keep entropy higher")
	}
}

func TestBaselineTracksMeanReward(t *testing.T) {
	s := twoDecisionSpace()
	c := New(s, Config{LearningRate: 0.01, BaselineMomentum: 0.5})
	rng := tensor.NewRNG(5)
	for i := 0; i < 50; i++ {
		c.Update([]space.Assignment{c.Policy.Sample(rng)}, []float64{2.5})
	}
	if math.Abs(c.baseline-2.5) > 0.01 {
		t.Fatalf("baseline = %v, want ≈2.5", c.baseline)
	}
	if c.steps != 50 {
		t.Fatalf("steps = %d", c.steps)
	}
}

func TestUpdateValidatesLengths(t *testing.T) {
	c := New(twoDecisionSpace(), DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched lengths")
		}
	}()
	c.Update([]space.Assignment{{0, 0}}, []float64{1, 2})
}

func TestDefaultConfigSanity(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.LearningRate <= 0 || cfg.BaselineMomentum <= 0 || cfg.BaselineMomentum >= 1 {
		t.Fatalf("bad defaults: %+v", cfg)
	}
	// New must repair non-positive values.
	c := New(twoDecisionSpace(), Config{})
	if c.Config.LearningRate <= 0 {
		t.Fatal("New must default the learning rate")
	}
}
