package core

import (
	"h2onas/internal/controller"
	"h2onas/internal/datapipe"
	"h2onas/internal/nn"
	"h2onas/internal/space"
	"h2onas/internal/supernet"
	"h2onas/internal/tensor"
)

// TuNASSearch runs the alternating two-step baseline of Figure 2 (left):
// odd steps train the shared weights W on a *training* batch with a
// sampled candidate (no policy update); even steps sample a candidate,
// evaluate it on a *validation* batch, and apply REINFORCE (no weight
// update). It requires two statistically independent data streams — the
// very requirement the unified single-step algorithm removes — and runs
// serially (TuNAS "was not built for hyperscale deployments, and
// therefore lacks parallelism").
//
// valStream must be a second stream (different seed) over the same task.
func (s *Searcher) TuNASSearch(cfg Config, valStream *datapipe.Stream) (*Result, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(cfg.Seed)
	master := supernet.New(s.DS, rng.Split())
	ctrl := controller.New(s.DS.Space, cfg.Controller)
	opt := nn.NewAdam(cfg.WeightLR)
	res := &Result{}

	// Match the unified algorithm's data budget: cfg.Steps unified steps
	// consume Shards batches each for both W and π; the alternating
	// algorithm consumes one batch per half-step.
	totalHalfSteps := 2 * cfg.Steps * cfg.Shards
	warmup := cfg.WarmupSteps * cfg.Shards

	trainW := func(a space.Assignment, b *datapipe.Batch) float64 {
		b.UseForArch() // satisfies the ordering guard; TuNAS has no per-batch dual use
		b.UseForWeights()
		loss, dout := master.Loss(a, b)
		master.Backward(dout)
		nn.ClipGradNorm(master.Params(), 10)
		opt.Step(master.Params())
		nn.ZeroGrads(master.Params())
		return loss
	}

	for step := 0; step < warmup; step++ {
		trainW(ctrl.Policy.Sample(rng), s.Stream.NextBatch(cfg.BatchSize))
	}
	logicalStep := 0
	for half := 0; half < totalHalfSteps; half++ {
		if half%2 == 0 {
			// Learn W on training data.
			trainW(ctrl.Policy.Sample(rng), s.Stream.NextBatch(cfg.BatchSize))
			continue
		}
		// Learn π on validation data.
		a := ctrl.Policy.Sample(rng)
		vb := valStream.NextBatch(cfg.BatchSize)
		vb.UseForArch()
		q := master.Quality(a, vb)
		perf := s.Perf(a)
		r := s.Reward.Eval(q, perf)
		ctrl.Update([]space.Assignment{a}, []float64{r})
		res.Candidates = append(res.Candidates, Candidate{
			Step: logicalStep, Assignment: append(space.Assignment(nil), a...),
			Quality: q, Perf: perf, Reward: r,
		})
		if (half/2)%cfg.Shards == cfg.Shards-1 {
			res.History = append(res.History, StepInfo{
				Step:       logicalStep,
				MeanReward: r,
				MeanQ:      q,
				Entropy:    ctrl.Policy.Entropy(),
				Confidence: ctrl.Policy.Confidence(),
			})
			logicalStep++
			if cfg.Progress != nil {
				cfg.Progress(res.History[len(res.History)-1])
			}
		}
	}

	res.Best = ctrl.Policy.MostProbable()
	res.BestArch = s.DS.Decode(res.Best)
	res.BestPerf = s.Perf(res.Best)
	final := valStream.NextBatch(cfg.BatchSize * 4)
	final.UseForArch()
	res.FinalQuality = master.Quality(res.Best, final)
	res.ExamplesSeen = s.Stream.ExamplesServed() + valStream.ExamplesServed()
	return res, nil
}
