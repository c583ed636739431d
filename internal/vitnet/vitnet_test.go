package vitnet

import (
	"math"
	"testing"

	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/hwsim"
	"h2onas/internal/nn"
	"h2onas/internal/reward"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

// The network contract itself (shape, finite passes, gradient check,
// replicas, the warm-pass allocation gate, convergence) is core's
// HarnessNetwork; its transformer case is core's vit_test.go. The tests
// below drive this package's Supernet and Searcher directly.

func newSmall(seed uint64) (*space.ViTSpace, *Supernet, *datapipe.SeqStream) {
	vs := space.NewTransformerSpace(space.SmallViTConfig())
	cfg := datapipe.DefaultSeqConfig()
	sn := New(vs, cfg.Vocab, cfg.SeqLen, tensor.NewRNG(seed))
	return vs, sn, datapipe.NewSeqStream(cfg, seed)
}

func randomAssignment(vs *space.ViTSpace, rng *tensor.RNG) space.Assignment {
	a := make(space.Assignment, len(vs.Space.Decisions))
	for i, d := range vs.Space.Decisions {
		a[i] = rng.Intn(d.Arity())
	}
	return a
}

func TestForwardAnyCandidate(t *testing.T) {
	vs, sn, stream := newSmall(2)
	rng := tensor.NewRNG(3)
	b := stream.NextBatch(4)
	for trial := 0; trial < 40; trial++ {
		a := randomAssignment(vs, rng)
		logits := sn.Forward(a, b)
		for _, v := range logits.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("trial %d: non-finite logit for %s", trial, vs.Space.Describe(a))
			}
		}
	}
}

func TestBackwardAnyCandidateFinite(t *testing.T) {
	vs, sn, stream := newSmall(4)
	rng := tensor.NewRNG(5)
	for trial := 0; trial < 15; trial++ {
		a := randomAssignment(vs, rng)
		b := stream.NextBatch(4)
		nn.ZeroGrads(sn.Params())
		_, dout := sn.Loss(a, b)
		sn.Backward(dout)
		for _, p := range sn.Params() {
			for _, g := range p.Grad.Data {
				if math.IsNaN(g) || math.IsInf(g, 0) {
					t.Fatalf("trial %d: non-finite grad in %s", trial, p.Name)
				}
			}
		}
	}
}

func TestTransformerSearchEndToEnd(t *testing.T) {
	vs := space.NewTransformerSpace(space.SmallViTConfig())
	chip := hwsim.TPUv4()
	perf := func(a space.Assignment) []float64 {
		g := vs.Graph(vs.Decode(a))
		r := hwsim.Simulate(g, chip, hwsim.Options{Mode: hwsim.Training})
		return []float64{r.StepTime}
	}
	base := perf(vs.BaselineAssignment())
	rw := reward.MustNew(reward.ReLU,
		reward.Objective{Name: "train_step_time", Target: base[0], Beta: -2})
	s := &Searcher{
		VS:     vs,
		Reward: rw,
		Perf:   perf,
		Stream: datapipe.NewSeqStream(datapipe.DefaultSeqConfig(), 11),
	}
	res, err := s.Search(core.Config{
		Shards: 2, Steps: 25, BatchSize: 16, WarmupSteps: 5, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := vs.Space.Validate(res.Best); err != nil {
		t.Fatalf("best invalid: %v", err)
	}
	if len(res.History) != 25 {
		t.Fatalf("history %d", len(res.History))
	}
	if res.BestPerf[0] <= 0 {
		t.Fatalf("BestPerf %v", res.BestPerf)
	}
	if res.ExamplesSeen <= 0 {
		t.Fatal("no traffic consumed")
	}
}

func TestSeqStreamProperties(t *testing.T) {
	s := datapipe.NewSeqStream(datapipe.DefaultSeqConfig(), 1)
	b := s.NextBatch(64)
	if b.Size() != 64 || len(b.Tokens[0]) != 8 {
		t.Fatalf("batch shape wrong")
	}
	for _, toks := range b.Tokens {
		for _, tok := range toks {
			if tok < 0 || tok >= 64 {
				t.Fatalf("token %d out of vocab", tok)
			}
		}
	}
	var pos float64
	big := s.NextBatch(4000)
	for _, y := range big.Labels.Data {
		pos += y
	}
	if frac := pos / 4000; frac < 0.2 || frac > 0.8 {
		t.Fatalf("labels too skewed: %v", frac)
	}
}

func TestSeqBatchOrdering(t *testing.T) {
	s := datapipe.NewSeqStream(datapipe.DefaultSeqConfig(), 2)
	b := s.NextBatch(4)
	defer func() {
		if recover() == nil {
			t.Fatal("weights before arch must panic")
		}
	}()
	b.UseForWeights()
}

func TestSearchValidates(t *testing.T) {
	s := &Searcher{}
	if _, err := s.Search(core.Config{Shards: 1, Steps: 1, BatchSize: 1}); err == nil {
		t.Fatal("incomplete searcher must be rejected")
	}
}
