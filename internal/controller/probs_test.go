package controller

import (
	"math"
	"testing"

	"h2onas/internal/metrics"
	"h2onas/internal/nn"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

// freshSoftmax is nn.SoftmaxInto into a fresh slice.
func freshSoftmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	nn.SoftmaxInto(logits, out)
	return out
}

func requireFreshSoftmax(t *testing.T, p *Policy) {
	t.Helper()
	for d := range p.Logits {
		want := freshSoftmax(p.Logits[d])
		got := p.Probs(d)
		if !sameBits(got, want) {
			t.Fatalf("decision %d: Probs %v, fresh softmax %v", d, got, want)
		}
	}
}

// TestProbsFollowLogitWrites requires the memoized probabilities to equal
// a fresh softmax after every way the logits get written: an element
// store, a whole-row replacement, a copy into the row (a state restore)
// and Update.
func TestProbsFollowLogitWrites(t *testing.T) {
	c := New(twoDecisionSpace(), Config{LearningRate: 0.3, BaselineMomentum: 0.9, EntropyWeight: 1e-2})
	p := c.Policy
	requireFreshSoftmax(t, p)
	p.Logits[0][2] = 1.5
	requireFreshSoftmax(t, p)
	p.Logits[1] = []float64{0.25, -2}
	requireFreshSoftmax(t, p)
	p.Logits[1][0] = 7
	requireFreshSoftmax(t, p)
	copy(p.Logits[0], []float64{-1, 0, 3})
	requireFreshSoftmax(t, p)
	rng := tensor.NewRNG(4)
	for range 5 {
		c.Update([]space.Assignment{p.Sample(rng), p.Sample(rng)}, []float64{1, 0.5})
		requireFreshSoftmax(t, p)
	}
}

// TestUpdateKLMatchesFreshSoftmax requires controller_update_kl to be
// KL(π_old ‖ π_new) computed from fresh softmaxes of the logits before and
// after each step, bit for bit: π_old and π_new must never share storage.
func TestUpdateKLMatchesFreshSoftmax(t *testing.T) {
	c := New(twoDecisionSpace(), Config{LearningRate: 0.3, BaselineMomentum: 0.9, EntropyWeight: 1e-2})
	c.Metrics = metrics.New()
	rng := tensor.NewRNG(9)
	for step := range 8 {
		before := make([][]float64, len(c.Policy.Logits))
		for d, l := range c.Policy.Logits {
			before[d] = append([]float64(nil), l...)
		}
		samples := []space.Assignment{c.Policy.Sample(rng), c.Policy.Sample(rng), c.Policy.Sample(rng)}
		c.Update(samples, []float64{1, 0, float64(step) / 8})
		var want float64
		for d := range before {
			old, next := freshSoftmax(before[d]), freshSoftmax(c.Policy.Logits[d])
			for j, p := range old {
				if p > 0 && next[j] > 0 {
					want += p * math.Log(p/next[j])
				}
			}
		}
		got := c.Metrics.Gauge("controller_update_kl").Value()
		if math.Float64bits(got) != math.Float64bits(want) || want <= 0 {
			t.Fatalf("step %d: controller_update_kl %v, fresh-softmax KL %v", step, got, want)
		}
	}
}

// BenchmarkPolicySample measures one search step's policy work over the
// small DLRM space: the cross-shard update with the previous step's seven
// samples, then seven fresh samples from the moved policy.
func BenchmarkPolicySample(b *testing.B) {
	c := New(space.NewDLRMSpace(space.SmallDLRMConfig()).Space, DefaultConfig())
	rng := tensor.NewRNG(1)
	samples := make([]space.Assignment, 7)
	rewards := []float64{0.1, 0.4, 0.2, 0.9, 0.3, 0.5, 0.7}
	for i := range samples {
		samples[i] = c.Policy.Sample(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Update(samples, rewards)
		for k := range samples {
			samples[k] = c.Policy.Sample(rng)
		}
	}
}
