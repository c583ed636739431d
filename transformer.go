package h2onas

import (
	"h2onas/internal/arch"
	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/reward"
	"h2onas/internal/space"
	"h2onas/internal/vitnet"
)

// Transformer search (Appendix A: the transformer space "can be used in
// isolation to search for pure VIT or transformer based NLP models").
type (
	// SeqConfig parameterizes the synthetic sequence traffic.
	SeqConfig = datapipe.SeqConfig
	// TransformerResult is the outcome of a transformer search.
	TransformerResult = vitnet.Result
)

var (
	// DefaultSeqConfig matches the small transformer search config.
	DefaultSeqConfig = datapipe.DefaultSeqConfig
	// SmallViTConfig is the quickly-searchable transformer baseline.
	SmallViTConfig = space.SmallViTConfig
)

// SearchTransformer runs the one-shot transformer search end to end: it
// builds the pure transformer space over the model baseline, opens a
// sequence traffic stream, constructs a simulator-backed step-time
// objective with the target relative to the baseline architecture, and
// runs the unified single-step parallel search. It is the only assembly
// of that run: cmd/h2onas -domain nlp and examples/nlpsearch call it.
func SearchTransformer(model ViTConfig, traffic SeqConfig, chip Chip,
	kind RewardKind, latencyTargetFactor float64, opts SearchConfig) (*TransformerResult, error) {

	vs := space.NewTransformerSpace(model)
	perf := transformerPerf(vs, chip)
	base := perf(vs.BaselineAssignment())
	rw, err := reward.New(kind,
		reward.Objective{Name: "train_step_time", Target: base[0] * latencyTargetFactor, Beta: -2})
	if err != nil {
		return nil, err
	}
	s := &vitnet.Searcher{
		VS:     vs,
		Reward: rw,
		Perf:   perf,
		Stream: datapipe.NewSeqStream(traffic, opts.Seed),
	}
	return s.Search(opts)
}

// transformerPerf returns the search's performance objective: the
// simulated step time of one training step on 8 chips. Every candidate
// decodes and builds into the same arch and graph, so a warm call
// allocates only the slice it returns; the engine prices candidates on
// one goroutine.
func transformerPerf(vs *space.ViTSpace, chip Chip) func(space.Assignment) []float64 {
	var ar space.ViTArch
	var g arch.Graph
	return func(a space.Assignment) []float64 {
		vs.DecodeInto(a, &ar)
		vs.GraphInto(ar, &g)
		return []float64{Simulate(&g, chip, SimOptions{Mode: Training, Chips: 8}).StepTime}
	}
}

// Search rules (the Section 2.1 taxonomy). SearchConfig.Strategy selects
// one for any searcher; nil is REINFORCE. The multi-trial baselines are
// an AnalyticSearcher run at Shards: 1 with Steps trials.

// EvolutionOpts configures regularized evolution.
type EvolutionOpts = core.EvolutionOpts

var (
	// NewRandomSearch returns the uniform-random search rule.
	NewRandomSearch = core.NewRandomSearch
	// NewEvolution returns regularized (aging) evolution.
	NewEvolution = core.NewEvolution
)
