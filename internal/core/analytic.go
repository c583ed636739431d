package core

import (
	"fmt"

	"h2onas/internal/controller"
	"h2onas/internal/reward"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

// QualityFunc returns the quality objective Q(α) of a candidate.
type QualityFunc func(space.Assignment) float64

// AnalyticSearcher runs the RL search loop over analytic quality and
// performance evaluators — no super-network training. This is how the
// vision and production experiments Pareto-optimize models whose quality
// comes from the calibrated accuracy model rather than live training (the
// zero-touch production loop of Section 7.3 applied to the Figure 10
// population).
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
	Candidates  []Candidate
}

// Search runs Steps×Shards candidate evaluations with cross-shard
// REINFORCE updates and returns the most probable architecture.
func (s *AnalyticSearcher) Search(cfg Config) (*AnalyticResult, error) {
	if s.Space == nil || s.Reward == nil || s.Quality == nil || s.Perf == nil {
		return nil, fmt.Errorf("core: AnalyticSearcher requires Space, Reward, Quality and Perf")
	}
	if cfg.Shards <= 0 || cfg.Steps <= 0 {
		return nil, fmt.Errorf("core: non-positive shards/steps in %+v", cfg)
	}
	rng := tensor.NewRNG(cfg.Seed)
	ctrl := controller.New(s.Space, cfg.Controller)
	ctrl.Metrics = cfg.Metrics
	sm := newSearchMetrics(cfg.Metrics)
	res := &AnalyticResult{}

	assignments := make([]space.Assignment, cfg.Shards)
	rewards := make([]float64, cfg.Shards)
	for step := 0; step < cfg.Steps; step++ {
		stepSpan := sm.StepTime.Start()
		var sumR, sumQ float64
		evalSpan := sm.FanoutTime.Start()
		for i := 0; i < cfg.Shards; i++ {
			a := ctrl.Policy.Sample(rng)
			q := s.Quality(a)
			perf := s.Perf(a)
			r := s.Reward.Eval(q, perf)
			assignments[i], rewards[i] = a, r
			sumR += r
			sumQ += q
			res.Candidates = append(res.Candidates, Candidate{
				Step: step, Assignment: append(space.Assignment(nil), a...),
				Quality: q, Perf: perf, Reward: r,
			})
		}
		evalSpan.End()
		sm.Candidates.Add(int64(cfg.Shards))
		policySpan := sm.PolicyTime.Start()
		ctrl.Update(assignments, rewards)
		policySpan.End()
		info := StepInfo{
			Step:       step,
			MeanReward: sumR / float64(cfg.Shards),
			MeanQ:      sumQ / float64(cfg.Shards),
			Entropy:    ctrl.Policy.Entropy(),
			Confidence: ctrl.Policy.Confidence(),
		}
		res.History = append(res.History, info)
		sm.RecordStep(info)
		if cfg.Progress != nil {
			cfg.Progress(info)
		}
		stepSpan.End()
	}
	res.Best = ctrl.Policy.MostProbable()
	res.BestQuality = s.Quality(res.Best)
	res.BestPerf = s.Perf(res.Best)
	return res, nil
}
