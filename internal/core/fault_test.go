package core

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"h2onas/internal/metrics"
	"h2onas/internal/reward"
	"h2onas/internal/space"
)

func faultConfig() Config {
	cfg := fastConfig(7)
	cfg.Shards = 3
	cfg.Steps = 6
	cfg.WarmupSteps = 2
	cfg.BatchSize = 16
	return cfg
}

// TestTransientShardFaultIsInvisible injects a single shard failure; the
// retry must succeed and leave the run bit-identical to the fault-free
// one, with exactly one backoff sleep taken.
func TestTransientShardFaultIsInvisible(t *testing.T) {
	s1, _ := testSearcher(t, reward.ReLU, 1.0, 12)
	golden, err := s1.Search(faultConfig())
	if err != nil {
		t.Fatal(err)
	}

	clk := &testClock{now: time.Unix(1754400000, 0)}
	reg := metrics.New()
	cfg := faultConfig()
	cfg.Clock = clk
	cfg.Metrics = reg
	cfg.ShardFault = func(step, shard, attempt int) error {
		if step == 4 && shard == 2 && attempt == 0 {
			return errors.New("injected transient shard failure")
		}
		return nil
	}
	s2, _ := testSearcher(t, reward.ReLU, 1.0, 12)
	faulty, err := s2.Search(cfg)
	if err != nil {
		t.Fatal(err)
	}

	requireSameBest(t, golden.Best, faulty.Best)
	requireSameHistory(t, golden.History, faulty.History)
	if d := math.Abs(golden.FinalQuality - faulty.FinalQuality); d > 1e-9 {
		t.Fatalf("FinalQuality drifted by %g after a retried fault", d)
	}
	if len(clk.sleeps) != 1 {
		t.Fatalf("recorded %d backoff sleeps, want 1", len(clk.sleeps))
	}
	if got := reg.Counter("search_shard_failures_total").Value(); got != 1 {
		t.Fatalf("failure counter = %d, want 1", got)
	}
	if got := reg.Counter("search_shard_retries_total").Value(); got != 1 {
		t.Fatalf("retry counter = %d, want 1", got)
	}
	if got := reg.Counter("search_shards_dropped_total").Value(); got != 0 {
		t.Fatalf("dropped counter = %d, want 0", got)
	}
}

// TestPermanentShardFailureDegradesGracefully kills one shard for the
// whole run: every step retries it, drops it, and completes on the
// survivors.
func TestPermanentShardFailureDegradesGracefully(t *testing.T) {
	sp := space.NewDLRMSpace(space.SmallDLRMConfig()).Space
	HarnessPermanentShardFailure(t, DLRMSearch, sp, faultConfig())
}

// HarnessPermanentShardFailure is the body of the degrade-to-survivors
// contract; cfg is a 3-shard run over the space sp.
func HarnessPermanentShardFailure(t *testing.T, search SearchFunc, sp *space.Space, cfg Config) {
	clk := &testClock{now: time.Unix(1754400000, 0)}
	reg := metrics.New()
	cfg.Clock = clk
	cfg.Metrics = reg
	cfg.ShardFault = func(step, shard, attempt int) error {
		if shard == 1 {
			return fmt.Errorf("shard 1 is gone (step %d attempt %d)", step, attempt)
		}
		return nil
	}
	res, err := search(t, 13, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(res.Best); err != nil {
		t.Fatalf("Best invalid after degradation: %v", err)
	}
	if got := fmt.Sprint(res.ShardFirstDrop); got != "[-1 0 -1]" {
		t.Fatalf("ShardFirstDrop = %s, want shard 1 alone dropped, from step 0", got)
	}
	if len(res.History) != cfg.Steps {
		t.Fatalf("history length %d, want %d", len(res.History), cfg.Steps)
	}
	// Shard 0 is the sandwich shard and shard 1 is dead, so exactly one
	// candidate survives per policy step.
	if want := cfg.Steps; len(res.Candidates) != want {
		t.Fatalf("candidates %d, want %d", len(res.Candidates), want)
	}
	for _, h := range res.History {
		if math.IsNaN(h.MeanReward) || math.IsNaN(h.MeanQ) {
			t.Fatalf("NaN telemetry after degradation: %+v", h)
		}
	}
	totalSteps := int64(cfg.WarmupSteps + cfg.Steps)
	if got := reg.Counter("search_shards_dropped_total").Value(); got != totalSteps {
		t.Fatalf("dropped counter = %d, want %d", got, totalSteps)
	}
	// Default policy: 2 retries before the drop, each with a backoff
	// sleep.
	if want := int(totalSteps) * 2; len(clk.sleeps) != want {
		t.Fatalf("recorded %d backoff sleeps, want %d", len(clk.sleeps), want)
	}
	if got := reg.Counter("search_steps_skipped_total").Value(); got != 0 {
		t.Fatalf("steps skipped = %d, want 0", got)
	}
}

// TestAllShardsFailingOneStepSkipsIt fails every shard for one step; the
// run must skip that step's updates and finish, one history entry short.
func TestAllShardsFailingOneStepSkipsIt(t *testing.T) {
	clk := &testClock{now: time.Unix(1754400000, 0)}
	reg := metrics.New()
	cfg := faultConfig()
	cfg.Clock = clk
	cfg.Metrics = reg
	deadStep := cfg.WarmupSteps + 2
	cfg.ShardFault = func(step, shard, attempt int) error {
		if step == deadStep {
			return errors.New("whole fleet offline")
		}
		return nil
	}
	s, _ := testSearcher(t, reward.ReLU, 1.0, 14)
	res, err := s.Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != cfg.Steps-1 {
		t.Fatalf("history length %d, want %d (one step skipped)", len(res.History), cfg.Steps-1)
	}
	if got := reg.Counter("search_steps_skipped_total").Value(); got != 1 {
		t.Fatalf("steps skipped = %d, want 1", got)
	}
	if got := reg.Counter("search_shards_dropped_total").Value(); got != int64(cfg.Shards) {
		t.Fatalf("dropped counter = %d, want %d", got, cfg.Shards)
	}
	if err := s.DS.Space.Validate(res.Best); err != nil {
		t.Fatalf("Best invalid: %v", err)
	}
}
