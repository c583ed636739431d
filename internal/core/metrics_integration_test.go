package core

import (
	"strings"
	"testing"

	"h2onas/internal/metrics"
	"h2onas/internal/reward"
	"h2onas/internal/space"
)

// TestSearchRecordsMetrics runs a short search with the observability
// layer enabled and checks that every subsystem reported: per-phase
// timing, trend gauges, controller KL, pipeline occupancy and counters.
// It is deliberately small so the race-detector CI job always exercises
// the instrumented shard fan-out.
func TestSearchRecordsMetrics(t *testing.T) {
	s, _ := testSearcher(t, reward.ReLU, 1.0, 3)
	cfg := fastConfig(3)
	cfg.Steps = 12
	cfg.WarmupSteps = 4
	reg := metrics.New()
	cfg.Metrics = reg
	res, err := s.Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != cfg.Steps {
		t.Fatalf("history %d, want %d", len(res.History), cfg.Steps)
	}

	totalSteps := int64(cfg.Steps + cfg.WarmupSteps)
	if got := reg.Histogram("search_step_seconds").Count(); got != totalSteps {
		t.Errorf("search_step_seconds count = %d, want %d", got, totalSteps)
	}
	if got := reg.Histogram("search_shard_step_seconds").Count(); got != totalSteps*int64(cfg.Shards) {
		t.Errorf("shard step count = %d, want %d", got, totalSteps*int64(cfg.Shards))
	}
	for _, name := range []string{
		"search_phase_sample_seconds",
		"search_phase_fanout_seconds",
		"search_phase_weight_update_seconds",
	} {
		if reg.Histogram(name).Count() != totalSteps {
			t.Errorf("%s count = %d, want %d", name, reg.Histogram(name).Count(), totalSteps)
		}
	}
	if got := reg.Histogram("search_phase_policy_update_seconds").Count(); got != int64(cfg.Steps) {
		t.Errorf("policy update count = %d, want %d (search steps only)", got, cfg.Steps)
	}
	if got := reg.Counter("search_steps_total").Value(); got != int64(cfg.Steps) {
		t.Errorf("steps_total = %d, want %d", got, cfg.Steps)
	}
	if got := reg.Counter("search_warmup_steps_total").Value(); got != int64(cfg.WarmupSteps) {
		t.Errorf("warmup_steps_total = %d, want %d", got, cfg.WarmupSteps)
	}
	// 1 sandwich shard excluded per non-warmup step.
	if got := reg.Counter("search_candidates_total").Value(); got != int64(cfg.Steps*(cfg.Shards-1)) {
		t.Errorf("candidates_total = %d, want %d", got, cfg.Steps*(cfg.Shards-1))
	}
	if reg.Counter("search_examples_total").Value() != res.ExamplesSeen {
		t.Errorf("examples_total = %d, want %d", reg.Counter("search_examples_total").Value(), res.ExamplesSeen)
	}

	// Controller trends.
	if got := reg.Counter("controller_updates_total").Value(); got != int64(cfg.Steps) {
		t.Errorf("controller updates = %d, want %d", got, cfg.Steps)
	}
	if reg.Histogram("controller_update_kl_nats").Count() != int64(cfg.Steps) {
		t.Error("controller KL histogram not populated")
	}
	if reg.Histogram("controller_update_kl_nats").Max() <= 0 {
		t.Error("KL divergence of a learning policy must be positive")
	}
	if reg.Gauge("search_entropy").Value() <= 0 {
		t.Error("entropy gauge not set")
	}
	if reg.Gauge("search_confidence").Value() <= 0 {
		t.Error("confidence gauge not set")
	}

	// Data pipeline.
	if reg.Histogram("datapipe_produce_seconds").Count() == 0 {
		t.Error("pipeline produce latency not recorded")
	}
	if reg.Counter("datapipe_batches_consumed_total").Value() < totalSteps*int64(cfg.Shards) {
		t.Errorf("batches consumed = %d, want ≥ %d",
			reg.Counter("datapipe_batches_consumed_total").Value(), totalSteps*int64(cfg.Shards))
	}

	// The end-of-run summary covers the per-phase timing and quality
	// trends (the Progress-unset reporting path).
	summary := reg.Summary()
	for _, want := range []string{
		"search_step_seconds",
		"search_phase_fanout_seconds",
		"search_mean_reward",
		"search_entropy",
		"controller_update_kl_nats",
		"datapipe_buffer_occupancy",
	} {
		if !strings.Contains(summary, want) {
			t.Errorf("summary missing %q", want)
		}
	}
}

// TestAnalyticSearchRecordsMetrics covers the analytic flow's
// instrumentation.
func TestAnalyticSearchRecordsMetrics(t *testing.T) {
	sp := multiTrialSpace()
	rw := reward.MustNew(reward.ReLU, reward.Objective{Name: "t", Target: 1, Beta: -1})
	s := &AnalyticSearcher{
		Space:   sp,
		Reward:  rw,
		Quality: func(a space.Assignment) float64 { return float64(a[0]) },
		Perf:    func(a space.Assignment) []float64 { return []float64{0.5} },
	}
	reg := metrics.New()
	_, err := s.Search(Config{Shards: 4, Steps: 10, Seed: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("search_steps_total").Value(); got != 10 {
		t.Errorf("steps_total = %d, want 10", got)
	}
	if got := reg.Counter("search_candidates_total").Value(); got != 40 {
		t.Errorf("candidates_total = %d, want 40", got)
	}
	if reg.Histogram("search_step_seconds").Count() != 10 {
		t.Error("step timing not recorded")
	}
	if reg.Counter("controller_updates_total").Value() != 10 {
		t.Error("controller updates not recorded")
	}
}
