// Package h2onas is a from-scratch Go implementation of Hyperscale
// Hardware Optimized Neural Architecture Search (H₂O-NAS, ASPLOS 2023):
// a production-grade one-shot neural architecture search system with a
// massively parallel unified single-step RL search algorithm, hardware-
// optimized search spaces with weight-sharing super-networks (including
// the first DLRM super-network for RL-based one-shot NAS), a single-sided
// ReLU multi-objective reward, and a two-phase (simulate-pretrain /
// measure-finetune) ML-driven hardware performance model — together with
// every substrate those pieces need: a neural-network training stack, an
// ML-accelerator performance and power simulator, an in-memory production
// traffic pipeline, and a calibrated model zoo.
//
// The package is a façade over the implementation packages. The three
// entry points mirror how the system is used:
//
//   - SearchDLRM runs the headline algorithm: a one-shot weight-sharing
//     search over a DLRM search space against live (synthetic) traffic;
//     SearchTransformer is its twin over the pure transformer space.
//   - AnalyticSearcher runs the same loop over analytic quality and
//     performance evaluators (the vision/production flow).
//   - RunExperiment regenerates any table or figure from the paper's
//     evaluation.
//
// The façade carries exactly the names examples/, cmd/ and api_test.go
// use (surface_test.go enforces it); everything else lives in internal/.
//
// See README.md for a walkthrough and DESIGN.md for the system inventory.
package h2onas

import (
	"h2onas/internal/arch"
	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/experiments"
	"h2onas/internal/hwsim"
	"h2onas/internal/perfmodel"
	"h2onas/internal/reward"
	"h2onas/internal/space"
)

// Search-space and model configuration.
type (
	// DLRMConfig describes a baseline DLRM and anchors its search space.
	DLRMConfig = space.DLRMConfig
	// ViTConfig describes a baseline (hybrid) vision transformer.
	ViTConfig = space.ViTConfig
	// Assignment selects one option per decision.
	Assignment = space.Assignment
)

// Search-space constructors.
var (
	// NewDLRMSpace builds the DLRM search space of Table 5.
	NewDLRMSpace = space.NewDLRMSpace
	// NewCNNSpace builds the convolutional search space of Table 5.
	NewCNNSpace = space.NewCNNSpace
	// NewTransformerSpace builds the pure transformer space of Table 5.
	NewTransformerSpace = space.NewTransformerSpace
	// SmallDLRMConfig is the quickly-searchable DLRM baseline.
	SmallDLRMConfig = space.SmallDLRMConfig
	// DefaultCNNConfig is an EfficientNet-shaped CNN baseline.
	DefaultCNNConfig = space.DefaultCNNConfig
)

// Rewards (Section 6.1).
type (
	// RewardKind selects the combining function.
	RewardKind = reward.Kind
	// Objective is one performance objective with target and weight.
	Objective = reward.Objective
)

const (
	// ReLUReward is the paper's single-sided reward (Equation 1).
	ReLUReward = reward.ReLU
	// AbsoluteReward is the TuNAS baseline reward (Equation 2).
	AbsoluteReward = reward.Absolute
)

// NewReward builds a multi-objective reward function.
var NewReward = reward.New

// Traffic (Section 4.1's in-memory pipeline over synthetic production
// traffic).

// TrafficConfig parameterizes the synthetic CTR generator.
type TrafficConfig = datapipe.CTRConfig

var (
	// NewTrafficStream returns a seeded synthetic traffic stream.
	NewTrafficStream = datapipe.NewStream
	// DLRMTraffic returns traffic shaped like the model: its tables,
	// baseline vocabulary and dense features.
	DLRMTraffic = core.DLRMTraffic
)

// Search (Section 4's unified single-step parallel algorithm).
type (
	// SearchConfig controls a search run.
	SearchConfig = core.Config
	// SearchResult is a completed search.
	SearchResult = core.Result
	// StepInfo is per-step search telemetry.
	StepInfo = core.StepInfo
	// AnalyticSearcher runs the search loop over analytic evaluators.
	AnalyticSearcher = core.AnalyticSearcher
)

var (
	// DefaultSearchConfig returns search hyperparameters suited to the
	// small DLRM configuration.
	DefaultSearchConfig = core.DefaultConfig
	// OneShotSearchConfig returns a run of the given shards, steps, batch
	// size, warm-up steps and seed with the hyper-parameters the CLI, the
	// job service and the experiments launch weight-sharing searches with.
	OneShotSearchConfig = core.OneShotConfig
)

// Hardware simulation (Section 6.2.3).
type (
	// Chip is one accelerator configuration.
	Chip = hwsim.Chip
	// SimOptions configures a simulation.
	SimOptions = hwsim.Options
	// Graph is the architecture IR the simulator executes.
	Graph = arch.Graph
)

// Chip configurations and the simulator entry points.
var (
	// TPUv4 models a TPU v4 training chip.
	TPUv4 = hwsim.TPUv4
	// TPUv4i models the TPU v4i inference chip.
	TPUv4i = hwsim.TPUv4i
	// Simulate walks a graph on a chip and returns its step cost.
	Simulate = hwsim.Simulate
	// Measure is Simulate warped by the systematic silicon gap.
	Measure = hwsim.Measure
)

// Training simulates forward+backward+gradient sync (the zero SimOptions
// mode is inference).
const Training = hwsim.Training

// Performance model (Section 6.2).

// PerfTrainConfig controls either training phase of the performance model.
type PerfTrainConfig = perfmodel.TrainConfig

var (
	// NewPerfModel builds an untrained performance model.
	NewPerfModel = perfmodel.New
	// SimulatorSamples labels random candidates with simulated times.
	SimulatorSamples = core.SimulatorSamples
	// MeasuredSamples labels random candidates with measured times.
	MeasuredSamples = core.MeasuredSamples
)

// Experiments: regeneration of the paper's tables and figures.
type (
	// Report is one regenerated table or figure.
	Report = experiments.Report
	// ExperimentScale sets the computational budget.
	ExperimentScale = experiments.Scale
)

// SmokeScale is the minimal budget used by tests; cmd/experiments -scale
// selects the larger ones.
var SmokeScale = experiments.Smoke

// SearchDLRM runs the headline flow end to end: it builds the search space
// for the model, opens an in-memory traffic pipeline, and runs the unified
// single-step parallel search that core.NewDLRMSearcher assembles —
// simulator-backed objectives (training step time as primary, serving
// memory as secondary) with targets relative to the baseline architecture.
//
// latencyTargetFactor scales the step-time target relative to the baseline
// (e.g. 0.85 demands a 15 % faster model); kind selects the reward.
func SearchDLRM(model DLRMConfig, traffic TrafficConfig, chip Chip,
	kind RewardKind, latencyTargetFactor float64, opts SearchConfig) (*SearchResult, error) {

	s, err := core.NewDLRMSearcher(space.NewDLRMSpace(model), chip, kind, latencyTargetFactor,
		datapipe.NewStream(traffic, opts.Seed))
	if err != nil {
		return nil, err
	}
	return s.Search(opts)
}

// RunExperiment regenerates one paper artifact by ID ("fig4" … "table5").
func RunExperiment(id string, scale ExperimentScale) (*Report, error) {
	r, err := experiments.Lookup(id)
	if err != nil {
		return nil, err
	}
	return r.Run(scale), nil
}
