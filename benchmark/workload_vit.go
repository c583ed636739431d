package main

import (
	"fmt"
	"time"

	"h2onas/internal/controller"
	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/hwsim"
	"h2onas/internal/reward"
	"h2onas/internal/space"
	"h2onas/internal/vitnet"
)

// vitRunner is the transformer search through vitnet's forked loop: the
// same configuration cmd/h2onas -domain nlp runs.
type vitRunner struct {
	o    runOpts
	vs   *space.ViTSpace
	perf core.PerfFunc
	rw   *reward.Function
	size searchSize

	traces []*searchTrace
}

func vitSize(o runOpts) searchSize {
	if o.smoke {
		return searchSize{shards: 2, batch: 8, warmup: 1, steps: 3}
	}
	return searchSize{shards: 4, batch: 16, warmup: 5, steps: 40}
}

func setupViT(o runOpts) (runner, error) {
	vs := space.NewTransformerSpace(space.SmallViTConfig())
	chip := hwsim.TPUv4()
	perf := func(a space.Assignment) []float64 {
		res := hwsim.Simulate(vs.Graph(vs.Decode(a)), chip, hwsim.Options{Mode: hwsim.Training, Chips: 8})
		return []float64{res.StepTime}
	}
	base := perf(vs.BaselineAssignment())
	r := &vitRunner{o: o, vs: vs, perf: perf, size: vitSize(o),
		rw: reward.MustNew(reward.ReLU, reward.Objective{Name: "train_step_time", Target: base[0], Beta: -2})}
	warm := r.size
	warm.warmup, warm.steps = 1, max(2, warm.steps/10)
	_, err := r.searcher(o.seed).Search(r.config(warm, o.seed))
	return r, err
}

func (r *vitRunner) searcher(seed uint64) *vitnet.Searcher {
	return &vitnet.Searcher{VS: r.vs, Reward: r.rw, Perf: r.perf,
		Stream: datapipe.NewSeqStream(datapipe.DefaultSeqConfig(), seed)}
}

func (r *vitRunner) config(z searchSize, seed uint64) core.Config {
	return core.Config{
		Shards: z.shards, Steps: z.steps, BatchSize: z.batch, WarmupSteps: z.warmup,
		WeightLR:   0.003,
		Controller: controller.Config{LearningRate: 0.2, BaselineMomentum: 0.9, EntropyWeight: 1e-4},
		Seed:       seed,
	}
}

func (r *vitRunner) measure(budget time.Duration, tr *tracer) (*window, *window, error) {
	return rounds(budget, tr, func(i int, w *window, tr *tracer) error {
		seed := mixSeed(r.o.seed, i)
		s, cfg := r.searcher(seed), r.config(r.size, seed)
		clock := newStepClock()
		cfg.Progress = clock.progress
		if tr != nil {
			st, done := traceSearch(tr, i, r.vs.Space, &cfg, &s.Perf)
			defer done()
			r.traces = append(r.traces, st)
		}
		res, err := s.Search(cfg)
		if err != nil {
			return fmt.Errorf("transformer search round %d: %w", i, err)
		}
		w.record(clock, r.size, res.History, nil)
		return nil
	})
}

func (r *vitRunner) layers(u, t *window, tr *tracer, budget time.Duration) (map[string]float64, error) {
	m := map[string]float64{}
	stepLedger(m, tr, r.traces, t)
	// The loop has no per-step warm-up marker: its warm-up is one span.
	m["core.warmup_step_ms_p50"] = median(tr.durations("core.warmup_step")) / float64(r.size.warmup)
	p := newProber(budget, 9)
	p.tensorViT(m)
	p.vit(m, r.vs, r.o.seed)
	return m, nil
}

func (r *vitRunner) close() {}
