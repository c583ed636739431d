package core

import (
	"fmt"

	"h2onas/internal/reward"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

// QualityFunc returns the quality objective Q(α) of a candidate.
type QualityFunc func(space.Assignment) float64

// AnalyticSearcher runs the search loop over analytic quality and
// performance evaluators — no super-network training. This is how the
// vision and production experiments Pareto-optimize models whose quality
// comes from the calibrated accuracy model rather than live training (the
// zero-touch production loop of Section 7.3 applied to the Figure 10
// population). The sample/update rule is Config.Strategy, exactly as in
// the weight-sharing engine: REINFORCE by default, and the multi-trial
// baselines of Section 2.1 (random search, regularized evolution) are
// the same loop at Shards: 1 with Steps trials — affordable here because
// a trial is an analytic evaluation, not a training run.
type AnalyticSearcher struct {
	Space   *space.Space
	Reward  *reward.Function
	Quality QualityFunc
	Perf    PerfFunc
}

// Search runs Steps×Shards candidate evaluations, feeding each step's
// Shards evaluations back to the strategy, and returns its choice with
// FinalQuality the Quality of Best.
func (s *AnalyticSearcher) Search(cfg Config) (*Outcome, error) {
	if s.Space == nil || s.Reward == nil || s.Quality == nil || s.Perf == nil {
		return nil, fmt.Errorf("core: AnalyticSearcher requires Space, Reward, Quality and Perf")
	}
	if cfg.Shards <= 0 || cfg.Steps <= 0 {
		return nil, fmt.Errorf("core: non-positive shards/steps in %+v", cfg)
	}
	if cfg.CheckpointDir != "" || cfg.Resume || cfg.Transport != nil || cfg.ShardFault != nil || cfg.Stop != nil || cfg.WarmupSteps != 0 {
		return nil, fmt.Errorf("core: the analytic search trains no weights, places no shards and runs to completion, so CheckpointDir, Resume, Transport, ShardFault, Stop and WarmupSteps are not supported")
	}
	rng := tensor.NewRNG(cfg.Seed)
	var out Outcome
	pol := newPolicyStage(&cfg, s.Space, s.Reward, s.Perf, &out)
	for step := 0; step < cfg.Steps; step++ {
		stepSpan := pol.sm.StepTime.Start()
		evalSpan := pol.sm.FanoutTime.Start()
		for i := 0; i < cfg.Shards; i++ {
			a := pol.strat.Sample(rng, false)
			pol.eval(step, a, s.Quality(a))
		}
		evalSpan.End()
		pol.update()
		pol.record(step)
		stepSpan.End()
	}
	pol.finish()
	out.FinalQuality = s.Quality(out.Best)
	return &out, nil
}
