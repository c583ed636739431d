package core

import (
	"fmt"

	"h2onas/internal/datapipe"
	"h2onas/internal/nn"
	"h2onas/internal/supernet"
	"h2onas/internal/tensor"
)

// TuNASSearch runs the alternating two-step baseline of Figure 2 (left):
// odd steps train the shared weights W on a *training* batch with a
// sampled candidate (no policy update); even steps sample a candidate,
// evaluate it on a *validation* batch, and update the strategy (no weight
// update). The strategy is Config.Strategy, REINFORCE by default, behind
// the same policy stage as every search loop. It requires two
// statistically independent data streams — the very requirement the
// unified single-step algorithm removes — and runs serially (TuNAS "was
// not built for hyperscale deployments, and therefore lacks
// parallelism").
//
// valStream must be a second stream (different seed) over the same task.
func (s *Searcher) TuNASSearch(cfg Config, valStream *datapipe.Stream) (*Result, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Stop != nil || cfg.CheckpointDir != "" || cfg.Resume || cfg.Transport != nil || cfg.ShardFault != nil {
		return nil, fmt.Errorf("core: the TuNAS baseline runs serially, in process and to completion, so Stop, CheckpointDir, Resume, Transport and ShardFault are not supported")
	}
	rng := tensor.NewRNG(cfg.Seed)
	master := supernet.New(s.DS, rng.Split())
	// One arena recycles every half-step's intermediates, as the engine's
	// networks do; drained on exit so its buffers return to the global
	// pools.
	arena := tensor.NewArena()
	master.SetArena(arena)
	defer func() {
		master.SetArena(nil)
		arena.Drain()
	}()
	opt := nn.NewAdam(cfg.WeightLR)
	res := &Result{}
	pol := newPolicyStage(&cfg, s.DS.Space, s.Reward, s.Perf, &res.Outcome)

	// Match the unified algorithm's data budget: cfg.Steps unified steps
	// consume Shards batches each for both W and π; the alternating
	// algorithm consumes one batch per half-step.
	totalHalfSteps := 2 * cfg.Steps * cfg.Shards
	warmup := cfg.WarmupSteps * cfg.Shards

	// trainW learns W on a training batch with a candidate whose
	// evaluation never reaches the strategy, which Sample's warmup flag
	// marks.
	trainW := func() {
		a := pol.strat.Sample(rng, true)
		b := s.Stream.NextBatch(cfg.BatchSize)
		b.UseForArch() // satisfies the ordering guard; TuNAS has no per-batch dual use
		b.UseForWeights()
		_, dout := master.Loss(a, b)
		master.Backward(dout)
		nn.ClipGradNorm(master.Params(), 10)
		opt.Step(master.Params())
		nn.ZeroGrads(master.Params())
	}

	for range warmup {
		trainW()
	}
	for half := 0; half < totalHalfSteps; half++ {
		if half%2 == 0 {
			trainW()
			continue
		}
		// Learn π on validation data, one sample per update; a logical
		// step's StepInfo reports its last sample.
		step := half / 2 / cfg.Shards
		a := pol.strat.Sample(rng, false)
		vb := valStream.NextBatch(cfg.BatchSize)
		vb.UseForArch()
		pol.eval(step, a, master.Quality(a, vb))
		pol.update()
		if (half/2)%cfg.Shards == cfg.Shards-1 {
			pol.record(step)
		}
	}

	pol.finish()
	res.BestArch = s.DS.Decode(res.Best)
	final := valStream.NextBatch(cfg.BatchSize * 4)
	final.UseForArch()
	res.FinalQuality = master.Quality(res.Best, final)
	res.ExamplesSeen = s.Stream.ExamplesServed() + valStream.ExamplesServed()
	return res, nil
}
