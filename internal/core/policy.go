package core

import (
	"h2onas/internal/reward"
	"h2onas/internal/space"
)

// policyStage is stage 2 of a search step, written once for every search
// loop: it turns each evaluated candidate into a reward and a Candidate,
// feeds the evaluations to the strategy and publishes the StepInfo. The
// step engine updates once a step over its policy shards, the analytic
// loop over every shard, TuNAS once per validation sample. It owns the
// run's strategy, candidate pool, instruments and the outcome's History,
// and runs on the coordinator only.
type policyStage struct {
	strat    Strategy
	reward   *reward.Function
	perf     PerfFunc
	cands    *candidateRing
	sm       searchMetrics
	progress func(StepInfo)
	out      *Outcome

	// The evaluations queued for the next update (samples[i] earned
	// rewards[i]) and their sums; sumQ and nQ also count the qualities
	// that train weights only. meanR and meanQ are the last update's.
	samples      []space.Assignment
	rewards      []float64
	sumR, sumQ   float64
	nQ           int
	meanR, meanQ float64
}

func newPolicyStage(cfg *Config, sp *space.Space, rw *reward.Function, perf PerfFunc, out *Outcome) *policyStage {
	return &policyStage{
		strat: strategyFor(cfg, sp), reward: rw, perf: perf,
		cands: newCandidateRing(cfg.MaxCandidates), sm: newSearchMetrics(cfg.Metrics),
		progress: cfg.Progress, out: out,
		samples: make([]space.Assignment, 0, cfg.Shards), rewards: make([]float64, 0, cfg.Shards),
	}
}

// quality counts q, the quality of an evaluation that trains weights
// only (the engine's sandwich shard), toward the next mean quality.
func (p *policyStage) quality(q float64) {
	p.sumQ += q
	p.nQ++
}

// eval rewards candidate a of quality q, evaluated in policy step step,
// keeps it as a Candidate and queues it for the next update.
func (p *policyStage) eval(step int, a space.Assignment, q float64) {
	perf := p.perf(a)
	r := p.reward.Eval(q, perf)
	p.cands.Add(Candidate{Step: step, Assignment: append(space.Assignment(nil), a...), Quality: q, Perf: perf, Reward: r})
	p.samples, p.rewards = append(p.samples, a), append(p.rewards, r)
	p.sumR += r
	p.quality(q)
}

// update feeds the queued evaluations to the strategy (none, when every
// policy shard of a step was dropped) and keeps their means for record.
func (p *policyStage) update() {
	span := p.sm.PolicyTime.Start()
	p.strat.Update(p.samples, p.rewards)
	span.End()
	p.sm.Candidates.Add(int64(len(p.samples)))
	p.meanR, p.meanQ = 0, 0
	if n := len(p.samples); n > 0 {
		p.meanR = p.sumR / float64(n)
	}
	if p.nQ > 0 {
		p.meanQ = p.sumQ / float64(p.nQ)
	}
	p.samples, p.rewards = p.samples[:0], p.rewards[:0]
	p.sumR, p.sumQ, p.nQ = 0, 0, 0
}

// record closes policy step step: the last update's means and the
// strategy's diagnostics go to History, the instruments and Progress.
func (p *policyStage) record(step int) {
	info := StepInfo{Step: step, MeanReward: p.meanR, MeanQ: p.meanQ}
	info.Entropy, info.Confidence = p.strat.Diagnostics()
	p.out.History = append(p.out.History, info)
	p.sm.RecordStep(info)
	if p.progress != nil {
		p.progress(info)
	}
}

// finish sets the outcome's choice, its performance and candidate pool.
func (p *policyStage) finish() {
	p.out.Best = p.strat.Best()
	p.out.BestPerf = p.perf(p.out.Best)
	p.out.Candidates = p.cands.Items()
}
