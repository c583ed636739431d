// Package jobs is the search-as-a-service layer: a durable job
// orchestrator that accepts search specifications over HTTP, runs them on
// a bounded worker pool with per-tenant fair-share scheduling and quotas,
// and survives process death. Every state transition is journaled through
// the internal/checkpoint FS seam with the same atomic-write, checksummed,
// corrupt-record-skipping discipline as search snapshots, and running jobs
// checkpoint through core.Search's full-state snapshot path into per-job
// directories — so a SIGKILL mid-run costs at most the steps since the
// last snapshot, and the restarted process replays the journal,
// re-enqueues interrupted jobs, and resumes them bit-deterministically:
// an interrupted job's result is byte-identical to an uninterrupted run's.
package jobs

import (
	"fmt"
	"sync"

	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/hwsim"
	"h2onas/internal/reward"
	"h2onas/internal/space"
)

// Caps bound what one job may ask for: a job is a tenant-submitted unit of
// work, so an absurd spec must be rejected at admission, not discovered as
// a stuck worker.
const (
	MaxSteps  = 2000
	MaxShards = 16
	MaxBatch  = 256
	MaxWarmup = 500

	minLatencyTarget = 1e-6
	maxLatencyTarget = 1e6
)

// Spec is the search specification a tenant submits. The zero value of
// every field means "the default"; Normalize fills defaults and Validate
// rejects anything outside the supported surface. A Spec is part of the
// job's journaled record, so it must round-trip through JSON exactly.
type Spec struct {
	// Space selects the search space. Currently "dlrm-small": the
	// quickly-searchable DLRM configuration with live weight sharing.
	Space string `json:"space,omitempty"`
	// Strategy is reinforce (default), random, evolution, or halving.
	Strategy string `json:"strategy,omitempty"`
	// Reward is relu (default) or absolute (see reward.KindByName).
	Reward string `json:"reward,omitempty"`
	// Chip is the target accelerator: tpuv4 (default), tpuv4i, or v100.
	Chip string `json:"chip,omitempty"`
	// LatencyTarget is the step-time target as a fraction of the baseline
	// architecture's (default 1.0).
	LatencyTarget float64 `json:"latency_target,omitempty"`

	// Steps, Shards, Batch and Warmup shape the run (defaults 60/4/32/8).
	Steps  int `json:"steps,omitempty"`
	Shards int `json:"shards,omitempty"`
	Batch  int `json:"batch,omitempty"`
	Warmup int `json:"warmup,omitempty"`
	// Seed drives every stochastic choice; the same spec with the same
	// seed always produces the same result bytes (default 1).
	Seed uint64 `json:"seed,omitempty"`
}

// Normalize returns the spec with every zero field replaced by its
// default. Submit normalizes before journaling, so the record always
// shows the values the job actually ran with.
func (sp Spec) Normalize() Spec {
	if sp.Space == "" {
		sp.Space = "dlrm-small"
	}
	if sp.Strategy == "" {
		sp.Strategy = "reinforce"
	}
	if sp.Reward == "" {
		sp.Reward = "relu"
	}
	if sp.Chip == "" {
		sp.Chip = "tpuv4"
	}
	if sp.LatencyTarget == 0 {
		sp.LatencyTarget = 1.0
	}
	if sp.Steps == 0 {
		sp.Steps = 60
	}
	if sp.Shards == 0 {
		sp.Shards = 4
	}
	if sp.Batch == 0 {
		sp.Batch = 32
	}
	if sp.Warmup == 0 {
		sp.Warmup = 8
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	return sp
}

// Validate checks a normalized spec against the supported surface and the
// admission caps.
func (sp Spec) Validate() error {
	if sp.Space != "dlrm-small" {
		return fmt.Errorf("jobs: unknown space %q (want dlrm-small)", sp.Space)
	}
	if _, err := reward.KindByName(sp.Reward); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	if _, ok := hwsim.ChipByName(sp.Chip); !ok {
		return fmt.Errorf("jobs: unknown chip %q (want tpuv4, tpuv4i, or v100)", sp.Chip)
	}
	// The bounds keep the reward's absolute target (baseline × this) a
	// positive finite number, which reward.New requires.
	if !(sp.LatencyTarget >= minLatencyTarget && sp.LatencyTarget <= maxLatencyTarget) {
		return fmt.Errorf("jobs: latency_target %g outside %g..%g", sp.LatencyTarget, minLatencyTarget, maxLatencyTarget)
	}
	if sp.Steps < 1 || sp.Steps > MaxSteps {
		return fmt.Errorf("jobs: steps %d outside 1..%d", sp.Steps, MaxSteps)
	}
	if sp.Shards < 1 || sp.Shards > MaxShards {
		return fmt.Errorf("jobs: shards %d outside 1..%d", sp.Shards, MaxShards)
	}
	if sp.Batch < 1 || sp.Batch > MaxBatch {
		return fmt.Errorf("jobs: batch %d outside 1..%d", sp.Batch, MaxBatch)
	}
	if sp.Warmup < 0 || sp.Warmup > MaxWarmup {
		return fmt.Errorf("jobs: warmup %d outside 0..%d", sp.Warmup, MaxWarmup)
	}
	// Resolve the strategy exactly as build will, so an unknown name or a
	// budget the rule cannot run on (successive halving needs one
	// evaluation per survivor per rung) is refused at admission instead of
	// failing the job when it starts.
	_, err := sp.strategy(admissionSpace())
	return err
}

// admissionSpace is the decision space Validate resolves strategies over,
// built once: a strategy only reads it, and Validate discards the strategy.
var admissionSpace = sync.OnceValue(func() *space.Space {
	return space.NewDLRMSpace(space.SmallDLRMConfig()).Space
})

// strategy builds the spec's search rule over the space; the budget is the
// run's fault-free count of evaluations reaching Update (one per policy
// shard per step).
func (sp Spec) strategy(s *space.Space) (core.Strategy, error) {
	strat, err := core.StrategyByName(sp.Strategy, s, sp.Steps*max(1, sp.Shards-1))
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	return strat, nil
}

// build constructs a fresh searcher and config for one run of the spec.
// It is called once per (re)start of the job; because every stochastic
// input is derived from the spec, a rebuilt searcher resumed from a
// snapshot continues the original trajectory bit-for-bit (the same
// property cmd/h2onas relies on for -resume).
func (sp Spec) build() (*core.Searcher, core.Config, error) {
	chip, ok := hwsim.ChipByName(sp.Chip)
	if !ok {
		return nil, core.Config{}, fmt.Errorf("jobs: unknown chip %q", sp.Chip)
	}
	kind, err := reward.KindByName(sp.Reward)
	if err != nil {
		return nil, core.Config{}, fmt.Errorf("jobs: %w", err)
	}

	model := space.SmallDLRMConfig()
	ds := space.NewDLRMSpace(model)
	s, err := core.NewDLRMSearcher(ds, chip, kind, sp.LatencyTarget,
		datapipe.NewStream(core.DLRMTraffic(model), sp.Seed))
	if err != nil {
		return nil, core.Config{}, err
	}

	cfg := core.OneShotConfig(sp.Shards, sp.Steps, sp.Batch, sp.Warmup, sp.Seed)
	// Long queues of jobs share one process: bound each result's
	// candidate pool so memory stays flat across the fleet.
	cfg.MaxCandidates = 512
	if cfg.Strategy, err = sp.strategy(ds.Space); err != nil {
		return nil, core.Config{}, err
	}
	return s, cfg, nil
}
