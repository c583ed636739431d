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
//     search over a DLRM search space against live (synthetic) traffic.
//   - SearchAnalytic runs the same RL loop over analytic quality and
//     performance evaluators (the vision/production flow).
//   - RunExperiment regenerates any table or figure from the paper's
//     evaluation.
//
// See README.md for a walkthrough and DESIGN.md for the system inventory.
package h2onas

import (
	"h2onas/internal/arch"
	"h2onas/internal/checkpoint"
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
	// DLRMSpace couples a DLRM baseline with its Table 5 search space.
	DLRMSpace = space.DLRMSpace
	// DLRMArch is a decoded DLRM architecture candidate.
	DLRMArch = space.DLRMArch
	// CNNConfig describes a baseline convolutional model.
	CNNConfig = space.CNNConfig
	// CNNSpace couples a CNN baseline with its Table 5 search space.
	CNNSpace = space.CNNSpace
	// ViTConfig describes a baseline (hybrid) vision transformer.
	ViTConfig = space.ViTConfig
	// ViTSpace couples a ViT baseline with its search space.
	ViTSpace = space.ViTSpace
	// Space is an ordered set of categorical decisions.
	Space = space.Space
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
	// NewHybridViTSpace builds the hybrid conv+transformer space.
	NewHybridViTSpace = space.NewHybridViTSpace
	// DefaultDLRMConfig is a production-shaped laptop-scale DLRM baseline.
	DefaultDLRMConfig = space.DefaultDLRMConfig
	// SmallDLRMConfig is the quickly-searchable DLRM baseline.
	SmallDLRMConfig = space.SmallDLRMConfig
	// ProductionDLRMConfig is the O(10^282)-space production shape.
	ProductionDLRMConfig = space.ProductionDLRMConfig
	// DefaultCNNConfig is an EfficientNet-shaped CNN baseline.
	DefaultCNNConfig = space.DefaultCNNConfig
	// DefaultViTConfig is a CoAtNet-shaped hybrid baseline.
	DefaultViTConfig = space.DefaultViTConfig
)

// Rewards (Section 6.1).
type (
	// RewardKind selects the combining function.
	RewardKind = reward.Kind
	// Objective is one performance objective with target and weight.
	Objective = reward.Objective
	// Reward is a configured multi-objective reward function.
	Reward = reward.Function
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
type (
	// TrafficConfig parameterizes the synthetic CTR generator.
	TrafficConfig = datapipe.CTRConfig
	// TrafficStream is an endless use-once example stream.
	TrafficStream = datapipe.Stream
)

// NewTrafficStream returns a seeded synthetic traffic stream.
var NewTrafficStream = datapipe.NewStream

// Search (Section 4's unified single-step parallel algorithm).
type (
	// SearchConfig controls a search run.
	SearchConfig = core.Config
	// SearchResult is a completed search.
	SearchResult = core.Result
	// StepInfo is per-step search telemetry.
	StepInfo = core.StepInfo
	// Searcher couples a space, reward, objectives and traffic.
	Searcher = core.Searcher
	// AnalyticSearcher runs the search loop over analytic evaluators.
	AnalyticSearcher = core.AnalyticSearcher
	// DLRMObjectives produces (train step time, serving bytes) objectives.
	DLRMObjectives = core.DLRMObjectives
)

// DefaultSearchConfig returns search hyperparameters suited to the small
// DLRM configuration.
var DefaultSearchConfig = core.DefaultConfig

// Checkpointing (fault-tolerant search: periodic full-state snapshots
// with bit-deterministic resume — set SearchConfig.CheckpointDir /
// CheckpointEvery / Resume).
type (
	// CheckpointSnapshot is one complete search state.
	CheckpointSnapshot = checkpoint.Snapshot
	// CheckpointManager saves, lists and loads snapshot files.
	CheckpointManager = checkpoint.Manager
)

// ErrNoCheckpoint is returned by CheckpointManager.LoadLatest when the
// directory holds no loadable snapshot.
var ErrNoCheckpoint = checkpoint.ErrNoCheckpoint

// Hardware simulation (Section 6.2.3).
type (
	// Chip is one accelerator configuration.
	Chip = hwsim.Chip
	// SimOptions configures a simulation.
	SimOptions = hwsim.Options
	// SimResult is a simulated step cost with power/energy.
	SimResult = hwsim.Result
	// Graph is the architecture IR the simulator executes.
	Graph = arch.Graph
)

// Chip configurations and the simulator entry points.
var (
	// TPUv4 models a TPU v4 training chip.
	TPUv4 = hwsim.TPUv4
	// TPUv4i models the TPU v4i inference chip.
	TPUv4i = hwsim.TPUv4i
	// GPUV100 models an NVIDIA V100.
	GPUV100 = hwsim.GPUV100
	// Simulate walks a graph on a chip and returns its step cost.
	Simulate = hwsim.Simulate
	// Measure is Simulate warped by the systematic silicon gap.
	Measure = hwsim.Measure
)

// Simulation modes.
const (
	// Inference simulates a forward pass.
	Inference = hwsim.Inference
	// Training simulates forward+backward+gradient sync.
	Training = hwsim.Training
)

// Performance model (Section 6.2).
type (
	// PerfModel is the dual-head MLP performance predictor.
	PerfModel = perfmodel.Model
	// PerfSample is one (architecture, performance) observation.
	PerfSample = perfmodel.Sample
	// PerfTrainConfig controls either training phase.
	PerfTrainConfig = perfmodel.TrainConfig
)

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

var (
	// QuickScale is the reduced budget used by benches.
	QuickScale = experiments.Quick
	// FullScale is the default budget of cmd/experiments.
	FullScale = experiments.Full
	// SmokeScale is the minimal budget used by tests.
	SmokeScale = experiments.Smoke
)

// SearchDLRM runs the headline flow end to end: it builds the search space
// for the model, opens an in-memory traffic pipeline, constructs the
// simulator-backed objectives (training step time as primary, serving
// memory as secondary) with targets relative to the baseline architecture,
// and runs the unified single-step parallel search.
//
// latencyTargetFactor scales the step-time target relative to the baseline
// (e.g. 0.85 demands a 15 % faster model); kind selects the reward.
func SearchDLRM(model DLRMConfig, traffic TrafficConfig, chip Chip,
	kind RewardKind, latencyTargetFactor float64, opts SearchConfig) (*SearchResult, error) {

	ds := space.NewDLRMSpace(model)
	obj := &core.DLRMObjectives{DS: ds, Chip: chip}
	base := obj.BaselinePerf()
	rw, err := reward.New(kind,
		reward.Objective{Name: "train_step_time", Target: base[0] * latencyTargetFactor, Beta: -2},
		reward.Objective{Name: "serving_memory", Target: base[1], Beta: -1},
	)
	if err != nil {
		return nil, err
	}
	s := &core.Searcher{
		DS:     ds,
		Reward: rw,
		Perf:   obj.Perf,
		Stream: datapipe.NewStream(traffic, opts.Seed),
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

// RunAllExperiments regenerates every table and figure in paper order.
func RunAllExperiments(scale ExperimentScale) []*Report {
	return experiments.RunAll(scale)
}
