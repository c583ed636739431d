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

// AnalyticResult is the outcome of an analytic search.
type AnalyticResult struct {
	Best        space.Assignment
	BestQuality float64
	BestPerf    []float64
	History     []StepInfo
	// Candidates is every evaluated (α, Q, T, R), or only the newest
	// Config.MaxCandidates of them, in arrival order, when that is > 0.
	Candidates []Candidate
}

// Search runs Steps×Shards candidate evaluations, feeding each step's
// Shards evaluations back to the strategy, and returns its choice.
func (s *AnalyticSearcher) Search(cfg Config) (*AnalyticResult, error) {
	if s.Space == nil || s.Reward == nil || s.Quality == nil || s.Perf == nil {
		return nil, fmt.Errorf("core: AnalyticSearcher requires Space, Reward, Quality and Perf")
	}
	if cfg.Shards <= 0 || cfg.Steps <= 0 {
		return nil, fmt.Errorf("core: non-positive shards/steps in %+v", cfg)
	}
	if cfg.CheckpointDir != "" || cfg.Resume || cfg.Transport != nil || cfg.ShardFault != nil {
		return nil, fmt.Errorf("core: the analytic search trains no weights and places no shards, so CheckpointDir, Resume, Transport and ShardFault are not supported")
	}
	rng := tensor.NewRNG(cfg.Seed)
	strat := strategyFor(&cfg, s.Space)
	sm := newSearchMetrics(cfg.Metrics)
	res := &AnalyticResult{}
	cands := newCandidateRing(cfg.MaxCandidates)

	assignments := make([]space.Assignment, cfg.Shards)
	rewards := make([]float64, cfg.Shards)
	for step := 0; step < cfg.Steps; step++ {
		stepSpan := sm.StepTime.Start()
		var sumR, sumQ float64
		evalSpan := sm.FanoutTime.Start()
		for i := 0; i < cfg.Shards; i++ {
			a := strat.Sample(rng, false)
			q := s.Quality(a)
			perf := s.Perf(a)
			r := s.Reward.Eval(q, perf)
			assignments[i], rewards[i] = a, r
			sumR += r
			sumQ += q
			cands.Add(Candidate{
				Step: step, Assignment: append(space.Assignment(nil), a...),
				Quality: q, Perf: perf, Reward: r,
			})
		}
		evalSpan.End()
		sm.Candidates.Add(int64(cfg.Shards))
		policySpan := sm.PolicyTime.Start()
		strat.Update(assignments, rewards)
		policySpan.End()
		info := StepInfo{
			Step:       step,
			MeanReward: sumR / float64(cfg.Shards),
			MeanQ:      sumQ / float64(cfg.Shards),
			Entropy:    strat.Entropy(),
			Confidence: strat.Confidence(),
		}
		res.History = append(res.History, info)
		sm.RecordStep(info)
		if cfg.Progress != nil {
			cfg.Progress(info)
		}
		stepSpan.End()
	}
	res.Candidates = cands.Items()
	res.Best = strat.Best()
	res.BestQuality = s.Quality(res.Best)
	res.BestPerf = s.Perf(res.Best)
	return res, nil
}
