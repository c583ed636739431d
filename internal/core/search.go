// Package core assembles H₂O-NAS's primary contribution: the massively
// parallel *unified single-step* search algorithm of Section 4 (Figure 2,
// right), which learns the policy π and the shared super-network weights W
// in the same step from the same fresh batch of production traffic — plus
// the TuNAS-style *alternating two-step* baseline (Figure 2, left) it is
// compared against.
//
// Each simulated accelerator shard executes the three stages of a search
// step:
//
//  1. sample a candidate αᵢ from π and run a forward pass with the shared
//     weights W on a fresh batch to estimate quality Q(αᵢ);
//  2. combine Q(αᵢ) with predicted performance T(αᵢ) into the reward
//     R(αᵢ) and contribute to the cross-shard REINFORCE update of π;
//  3. in parallel, contribute the candidate's gradients on the same batch
//     to the cross-shard update of W.
//
// The pipeline's use-once batches make the single-step unification sound:
// α is always learned on data W has never trained on.
package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"h2onas/internal/checkpoint"
	"h2onas/internal/controller"
	"h2onas/internal/datapipe"
	"h2onas/internal/metrics"
	"h2onas/internal/nn"
	"h2onas/internal/reward"
	"h2onas/internal/space"
	"h2onas/internal/supernet"
	"h2onas/internal/tensor"
)

// ErrStopped reports that a search ended early because Config.Stop was
// signalled. The returned Result carries the partial history; when
// checkpointing is configured, the final snapshot is durable before
// Search returns, so the run can be resumed later without losing work.
var ErrStopped = errors.New("core: search stopped by Config.Stop")

// PerfFunc returns the performance-objective values of a candidate, in the
// reward function's objective order (e.g. predicted train step time from
// the performance model, analytic serving memory).
type PerfFunc func(space.Assignment) []float64

// Config controls a search run.
type Config struct {
	// Shards is the number of parallel accelerator shards. Each samples
	// its own candidate per step.
	Shards int
	// Workers is the search's total core budget, partitioned by
	// coreBudget: at most Workers shards run at once, each replica's
	// layer passes are bounded to its per-shard share, while the spine
	// and the master's final evaluation — which run in
	// coordinator-exclusive phases — use the full budget. 0 (the default)
	// uses GOMAXPROCS at Search time. The budget is a performance knob
	// only: trajectories are bit-identical for any Workers value, so it is
	// deliberately NOT part of the checkpoint fingerprint — a run may be
	// resumed under a different core budget.
	Workers int
	// Steps is the number of search steps.
	Steps int
	// BatchSize is the per-shard batch size.
	BatchSize int
	// WarmupSteps trains shared weights on random candidates before
	// policy updates begin, so early rewards reflect partially trained
	// weights rather than noise.
	WarmupSteps int
	// WeightLR is the Adam learning rate for shared weights.
	WeightLR float64
	// Controller configures the RL controller (the default strategy).
	Controller controller.Config
	// Strategy overrides the sample/update rule of the search: nil (the
	// default) runs the REINFORCE controller configured by Controller;
	// NewRandomSearch, NewEvolution and NewSuccessiveHalving provide the
	// baseline battery behind the same interface. A Strategy instance is
	// stateful and belongs to a single Search call — construct a fresh
	// one per run. Its identity is part of the checkpoint fingerprint,
	// so resume refuses a snapshot written by a different strategy.
	Strategy Strategy
	// Seed drives all stochastic choices.
	Seed uint64
	// DisableSandwich turns off sandwich training (see Search). On by
	// default because laptop-scale supernets otherwise develop a strong
	// bias toward the thinnest candidates; the ablation bench measures
	// its effect.
	DisableSandwich bool
	// Progress, when non-nil, receives per-step telemetry.
	Progress func(StepInfo)
	// Metrics, when non-nil, receives counters, gauges and per-phase
	// timing histograms from the search loop (and is propagated to the
	// controller and data pipeline). nil — equivalently metrics.Nop() —
	// keeps the hot path free of observability overhead.
	Metrics *metrics.Registry

	// MaxCandidates bounds Result.Candidates: when > 0 only the newest
	// MaxCandidates evaluated candidates are retained (oldest evicted
	// first); 0 keeps every candidate, the historical behaviour. Long
	// searches at high shard counts produce Shards·Steps candidates, so
	// bounding keeps Result memory flat without touching the telemetry
	// History.
	MaxCandidates int

	// CheckpointEvery, together with CheckpointDir, writes a full-state
	// snapshot every CheckpointEvery steps (warmup steps count). 0
	// disables periodic checkpointing.
	CheckpointEvery int
	// CheckpointDir is the snapshot directory. Empty disables
	// checkpointing and resume-from-directory.
	CheckpointDir string
	// CheckpointRetain keeps only the newest N snapshots (0 keeps all).
	CheckpointRetain int
	// CheckpointFS overrides the snapshot filesystem (in-memory tests,
	// fault injection); nil uses the real one.
	CheckpointFS checkpoint.FS
	// Resume restores the newest valid snapshot found in CheckpointDir
	// before searching; if none is loadable the search starts fresh with
	// a logged notice. A resumed search is bit-deterministic: it
	// reproduces the uninterrupted run's architecture and reward
	// trajectory exactly.
	Resume bool

	// Stop, when non-nil, requests cooperative cancellation: the search
	// checks it between steps and, once it is closed (or receives),
	// flushes a final full-state snapshot (when CheckpointDir is set),
	// then returns the partial Result with ErrStopped. A stopped run
	// resumed from that snapshot reproduces the uninterrupted run's
	// trajectory bit-for-bit — stopping is a pause, not a divergence.
	Stop <-chan struct{}

	// ShardFault, when non-nil, is consulted before each shard attempt
	// (stage 1/3 of the step); a non-nil error simulates that shard
	// failing transiently. It is the fault-injection seam for tests and
	// the hook future RPC-backed shards report through. A failing shard
	// is retried twice within the step, then dropped from that step's
	// cross-shard reduce.
	ShardFault func(step, shard, attempt int) error
	// Clock injects time for retry backoff; nil uses the real clock.
	Clock checkpoint.Clock

	// Transport overrides where the per-shard forward/backward work
	// executes. nil (the default) runs the in-process worker pool, driven
	// by the ShardFault seam above. A non-nil transport (e.g. shardrpc's
	// coordinator transport) is Bound by Search but closed by its owner;
	// its own fault policy replaces ShardFault. ShardTransport serves the
	// DLRM super-network: the engine refuses it for any other space.
	Transport ShardTransport
}

// DefaultConfig returns search hyperparameters suitable for the small DLRM
// configuration.
func DefaultConfig() Config {
	return Config{
		Shards:      8,
		Steps:       300,
		BatchSize:   64,
		WarmupSteps: 40,
		WeightLR:    0.003,
		Controller:  controller.DefaultConfig(),
		Seed:        1,
	}
}

// StepInfo is per-step telemetry.
type StepInfo struct {
	Step       int
	MeanReward float64
	MeanQ      float64
	Entropy    float64
	Confidence float64
}

// Candidate is one evaluated architecture sample.
type Candidate struct {
	Step       int
	Assignment space.Assignment
	Quality    float64
	Perf       []float64
	Reward     float64
}

// Outcome is the space-independent outcome of a search: everything the
// step engine produces. Each space's Result embeds it next to the
// decoded architecture.
type Outcome struct {
	// Best is the final architecture chosen by the strategy: the most
	// probable value of every decision in π for REINFORCE, the
	// best-reward candidate for the baseline strategies.
	Best space.Assignment
	// BestPerf is Perf evaluated on Best.
	BestPerf []float64
	// FinalQuality is the quality of Best: for a weight-sharing search,
	// the shared weights' quality on fresh data; for an analytic search,
	// the evaluator's QualityFunc on Best.
	FinalQuality float64
	// History is per-step telemetry.
	History []StepInfo
	// Candidates is every (α, Q, T, R) evaluated during the search — the
	// raw material for the Figure 5 Pareto analyses. When
	// Config.MaxCandidates > 0 only the newest MaxCandidates entries are
	// retained, in arrival order.
	Candidates []Candidate
	// ExamplesSeen is the total number of traffic examples consumed.
	ExamplesSeen int64
	// ResumedFrom is the step index (warmup steps count) the run was
	// restored at, or 0 for a fresh run.
	ResumedFrom int64
	// ShardFirstDrop records, per shard, the first step index (warmup
	// steps count; same numbering ShardFault sees) at which that shard
	// was dropped from the cross-shard reduce, or -1 if it completed
	// every step. A degraded multi-node run can be reproduced in-process
	// by failing the same shards from the same steps on.
	ShardFirstDrop []int
}

// ResultDocument serializes the deterministic slice of the outcome: the
// trajectory and the chosen architecture (described over sp, the space
// that was searched), excluding everything interruption-dependent —
// ResumedFrom (names the resume point), ExamplesSeen (varies with
// prefetch timing) and the candidate pool (not part of snapshots, so a
// resumed run's pool starts at the snapshot). Two runs that followed the
// same trajectory — including one interrupted and resumed any number of
// times — serialize byte-identically. It is the one encoder behind
// h2onas -result-out and the job service's result.json.
func (o *Outcome) ResultDocument(sp *space.Space) ([]byte, error) {
	out := struct {
		Best           space.Assignment `json:"best"`
		BestArch       string           `json:"best_arch"`
		BestPerf       []float64        `json:"best_perf"`
		FinalQuality   float64          `json:"final_quality"`
		ShardFirstDrop []int            `json:"shard_first_drop"`
		History        []StepInfo       `json:"history"`
	}{o.Best, sp.Describe(o.Best), o.BestPerf, o.FinalQuality, o.ShardFirstDrop, o.History}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Result is the outcome of a DLRM search.
type Result struct {
	Outcome
	// BestArch is Best decoded.
	BestArch space.DLRMArch
}

// Searcher couples a DLRM search space with its reward, performance
// evaluation and traffic source.
type Searcher struct {
	DS     *space.DLRMSpace
	Reward *reward.Function
	Perf   PerfFunc
	Stream *datapipe.Stream
}

func (s *Searcher) validate() error {
	if s.DS == nil || s.Reward == nil || s.Perf == nil || s.Stream == nil {
		return fmt.Errorf("core: Searcher requires DS, Reward, Perf and Stream")
	}
	return nil
}

// validate checks the run's sizes and fills the WeightLR default.
func (cfg *Config) validate() error {
	if cfg.Shards <= 0 || cfg.Steps <= 0 || cfg.BatchSize <= 0 {
		return fmt.Errorf("core: non-positive shards/steps/batch in %+v", *cfg)
	}
	// Warm-up steps are added to Steps: a negative count would silently
	// shorten the search.
	if cfg.WarmupSteps < 0 {
		return fmt.Errorf("core: negative WarmupSteps %d", cfg.WarmupSteps)
	}
	if cfg.WeightLR <= 0 {
		cfg.WeightLR = DefaultConfig().WeightLR
	}
	return nil
}

// Search runs the unified single-step massively parallel algorithm (see
// Engine.Search) over the DLRM space. Shard execution goes through
// Config.Transport when set — a fleet of remote workers over TCP, bound
// by the engine and closed by its owner — and the in-process pool
// otherwise.
func (s *Searcher) Search(cfg Config) (*Result, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	eng := Engine[*datapipe.Batch, *supernet.Supernet]{
		Space: s.DS.Space, Reward: s.Reward, Perf: s.Perf, Stream: s.Stream,
		New: func(rng *tensor.RNG) *supernet.Supernet { return supernet.New(s.DS, rng) },
	}
	out, err := eng.Search(cfg)
	if out == nil {
		return nil, err
	}
	res := &Result{Outcome: *out}
	if err == nil {
		res.BestArch = s.DS.Decode(res.Best)
	}
	return res, err
}

// QualityFromLoss maps a per-shard BCE loss to the one-shot quality
// signal (nn.QualityFromLoss). Exported so remote transports reproduce
// the in-process computation bit-for-bit from the raw loss they collect.
func QualityFromLoss(loss float64) float64 { return nn.QualityFromLoss(loss) }

// MaxAssignment selects the largest option of every decision (widest,
// deepest, fullest-rank candidate). The sandwich shard trains this maximal
// sub-network every step.
func MaxAssignment(sp *space.Space) space.Assignment {
	a := make(space.Assignment, len(sp.Decisions))
	for i := range sp.Decisions {
		a[i], _ = sp.Decisions[i].Max()
	}
	return a
}
