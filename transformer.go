package h2onas

import (
	"io"

	"h2onas/internal/controller"
	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/perfmodel"
	"h2onas/internal/reward"
	"h2onas/internal/space"
	"h2onas/internal/vitnet"
)

// Transformer search (Appendix A: the transformer space "can be used in
// isolation to search for pure VIT or transformer based NLP models").
type (
	// SeqConfig parameterizes the synthetic sequence traffic.
	SeqConfig = datapipe.SeqConfig
	// SeqStream is an endless use-once sequence-example stream.
	SeqStream = datapipe.SeqStream
	// TransformerSearcher runs the one-shot transformer search.
	TransformerSearcher = vitnet.Searcher
	// TransformerResult is its outcome.
	TransformerResult = vitnet.Result
	// TransformerSupernet is the weight-sharing transformer super-network.
	TransformerSupernet = vitnet.Supernet
)

var (
	// DefaultSeqConfig matches the small transformer search config.
	DefaultSeqConfig = datapipe.DefaultSeqConfig
	// NewSeqStream returns a seeded sequence traffic stream.
	NewSeqStream = datapipe.NewSeqStream
	// SmallViTConfig is the quickly-searchable transformer baseline.
	SmallViTConfig = space.SmallViTConfig
	// NewTransformerSupernet builds the transformer super-network.
	NewTransformerSupernet = vitnet.New
)

// SearchTransformer runs the one-shot transformer search end to end: it
// builds the pure transformer space over the model baseline, opens a
// sequence traffic stream, constructs a simulator-backed step-time
// objective with the target relative to the baseline architecture, and
// runs the unified single-step parallel search.
func SearchTransformer(model ViTConfig, traffic SeqConfig, chip Chip,
	kind RewardKind, latencyTargetFactor float64, opts SearchConfig) (*TransformerResult, error) {

	vs := space.NewTransformerSpace(model)
	perf := func(a space.Assignment) []float64 {
		g := vs.Graph(vs.Decode(a))
		r := Simulate(g, chip, SimOptions{Mode: Training, Chips: 8})
		return []float64{r.StepTime}
	}
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

// Search rules (the Section 2.1 taxonomy). SearchConfig.Strategy selects
// one for any searcher; nil is REINFORCE. The multi-trial baselines are
// an AnalyticSearcher run at Shards: 1 with Steps trials.
type (
	// Strategy is the sample/update rule of a search.
	Strategy = core.Strategy
	// EvolutionOpts configures regularized evolution.
	EvolutionOpts = core.EvolutionOpts
)

var (
	// NewRandomSearch returns the uniform-random search rule.
	NewRandomSearch = core.NewRandomSearch
	// NewEvolution returns regularized (aging) evolution.
	NewEvolution = core.NewEvolution
)

// LoadPerfModel reads a performance model saved with PerfModel.Save —
// pre-training is the expensive phase, so pre-trained models are reusable
// artifacts per (search space, hardware) pair.
func LoadPerfModel(r io.Reader) (*PerfModel, error) { return perfmodel.Load(r) }

// LoadPolicy reads a search policy saved with Policy.Save, validated
// against the space it was trained on.
var LoadPolicy = controller.LoadPolicy

// Policy is the RL controller's distribution over architectures.
type Policy = controller.Policy
