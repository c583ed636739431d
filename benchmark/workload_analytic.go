package main

import (
	"fmt"
	"math"
	"time"

	"h2onas/internal/controller"
	"h2onas/internal/core"
	"h2onas/internal/hwsim"
	"h2onas/internal/perfmodel"
	"h2onas/internal/quality"
	"h2onas/internal/reward"
	"h2onas/internal/space"
)

// analyticSize is the shape of one round of the Section 6.2 pipeline.
type analyticSize struct {
	sim, simHold   int // simulator corpus and hold-out
	meas, measHold int // measured fine-tuning set and hold-out
	epochs         int // pre-training epochs at batch 256
	predicts       int // Model.Predict sweep
	// One fitted perf model serves a population of searches (the paper's
	// zero-touch production loop runs eight): searches short analytic
	// searches of steps steps each. Short, because a converged policy makes
	// the cost of a step depend on where it converged, and so on the seed.
	searches, shards, steps int
	maxNRMSE                float64
}

// analyticRunner is the perf-model pipeline followed by an analytic search:
// no supernet anywhere. One round samples the simulator and the "measured"
// chip on SmallDLRM/TPUv4, pre-trains and fine-tunes the two-phase model,
// validates and queries it, then searches the hybrid ViT space against
// hwsim and the accuracy model.
type analyticRunner struct {
	o    runOpts
	env  *dlrmEnv
	vs   *space.ViTSpace
	rw   *reward.Function
	base float64 // baseline accuracy
	size analyticSize

	// Kept from the traced window for layers().
	pretrainRate, finetuneMs, nrmse []float64
	model                           *perfmodel.Model
}

func analyticSizeFor(o runOpts) analyticSize {
	if o.smoke {
		return analyticSize{sim: 128, simHold: 32, meas: 8, measHold: 16, epochs: 2, predicts: 64, searches: 2, shards: 2, steps: 4, maxNRMSE: math.Inf(1)}
	}
	return analyticSize{sim: 1500, simHold: 300, meas: 20, measHold: 200, epochs: 20, predicts: 10000, searches: 24, shards: 8, steps: 40, maxNRMSE: 0.25}
}

func (r *analyticRunner) simulate(a space.Assignment) hwsim.Result {
	return hwsim.Simulate(r.vs.Graph(r.vs.Decode(a)), r.env.obj.Chip, hwsim.Options{Mode: hwsim.Training, Chips: 128})
}

func (r *analyticRunner) accuracy(a space.Assignment) float64 {
	ar := r.vs.Decode(a)
	g := r.vs.Graph(ar)
	act := "gelu"
	if len(ar.TFMBlocks) > 0 {
		act = ar.TFMBlocks[0].Act
	}
	return quality.Accuracy(quality.Traits{
		Params: g.Params, FLOPs: g.TotalFLOPs(),
		Resolution: ar.Resolution, BaseResolution: 224,
		Activation: act,
	}, quality.ImageNet21K)
}

func setupAnalytic(o runOpts) (runner, error) {
	r := &analyticRunner{o: o, env: newDLRMEnv(), vs: space.NewHybridViTSpace(space.DefaultViTConfig()), size: analyticSizeFor(o)}
	ref := make(space.Assignment, len(r.vs.Space.Decisions))
	r.base = r.accuracy(ref)
	r.rw = reward.MustNew(reward.ReLU,
		reward.Objective{Name: "train_step_time", Target: r.simulate(ref).StepTime, Beta: -3})
	// A tenth-size round: both spaces' decode tables, the kernel pool and
	// the training buffers exist before the window.
	warm := r.size
	warm.sim, warm.simHold, warm.epochs, warm.predicts, warm.steps = warm.sim/10, warm.simHold/10, max(1, warm.epochs/10), warm.predicts/10, max(2, warm.steps/10)
	warm.maxNRMSE = math.Inf(1)
	return r, r.round(warm, o.seed, &window{}, nil, 0)
}

func (r *analyticRunner) close() {}

// stage runs fn under a span when traced.
func stage(tr *tracer, name string, parent, op int, fn func()) {
	t0 := time.Now()
	fn()
	if tr != nil {
		tr.add(name, t0, time.Now(), parent, op, 0)
	}
}

func (r *analyticRunner) round(z analyticSize, seed uint64, w *window, tr *tracer, i int) error {
	t0 := time.Now()
	root := -1
	if tr != nil {
		root = tr.begin("round", t0, -1, i, 0, true)
		defer func() { tr.finish(root, time.Now()) }()
	}
	ds, chip := r.env.ds, r.env.obj.Chip

	// Phase 1: the perf model, from sampling to a fine-tuned, validated
	// predictor.
	var sim, simHold, meas, measHold []perfmodel.Sample
	stage(tr, "hwsim.simulator_samples", root, i, func() {
		sim = core.SimulatorSamples(ds, chip, z.sim, seed)
		simHold = core.SimulatorSamples(ds, chip, z.simHold, seed+1)
	})
	stage(tr, "hwsim.measured_samples", root, i, func() {
		meas = core.MeasuredSamples(ds, chip, z.meas, seed+2)
		measHold = core.MeasuredSamples(ds, chip, z.measHold, seed+3)
	})
	model := perfmodel.New(len(ds.Space.Decisions), []int{128, 128}, seed)
	var err error
	p0 := time.Now()
	stage(tr, "perfmodel.pretrain", root, i, func() {
		err = model.Pretrain(sim, perfmodel.TrainConfig{Epochs: z.epochs, BatchSize: 256, LR: 1e-3, Seed: seed})
	})
	if err != nil {
		return err
	}
	pretrain := time.Since(p0)
	var preMeasured, simErr, postMeasured float64
	stage(tr, "perfmodel.nrmse", root, i, func() { preMeasured = model.NRMSE(measHold, 0) })
	f0 := time.Now()
	stage(tr, "perfmodel.finetune", root, i, func() { err = model.FineTune(meas, perfmodel.DefaultFineTuneConfig()) })
	if err != nil {
		return err
	}
	finetune := time.Since(f0)
	stage(tr, "perfmodel.nrmse", root, i, func() {
		simErr = model.NRMSE(simHold, 0)
		postMeasured = model.NRMSE(measHold, 0)
	})
	w.check(postMeasured < preMeasured, "fine-tuning did not help: NRMSE %.3f before, %.3f after", preMeasured, postMeasured)
	w.check(postMeasured <= z.maxNRMSE, "fine-tuned NRMSE %.3f above %.2f (simulator hold-out %.3f)", postMeasured, z.maxNRMSE, simErr)
	finite := true
	stage(tr, "perfmodel.predict_sweep", root, i, func() {
		for k := 0; k < z.predicts; k++ {
			train, serve := model.Predict(sim[k%len(sim)].Features)
			finite = finite && train > 0 && serve > 0 && !math.IsInf(train+serve, 0)
		}
	})
	w.check(finite, "a prediction was not a positive finite time")

	// Phase 2: the analytic searches; the first step of the first one is
	// the round's first op.
	all := &stepClock{t0: t0}
	var history []core.StepInfo
	for k := 0; k < z.searches; k++ {
		clock := &stepClock{t0: t0}
		s := &core.AnalyticSearcher{
			Space:   r.vs.Space,
			Reward:  r.rw,
			Quality: func(a space.Assignment) float64 { return (r.accuracy(a) - r.base) * 2 },
			Perf:    func(a space.Assignment) []float64 { return []float64{r.simulate(a).StepTime} },
		}
		cfg := core.Config{
			Shards: z.shards, Steps: z.steps, Seed: mixSeed(seed, k),
			Controller: controller.Config{LearningRate: 0.1, BaselineMomentum: 0.9, EntropyWeight: 2e-3},
			Progress:   clock.progress,
		}
		var at *analyticTrace
		if tr != nil {
			at = &analyticTrace{t: tr, search: tr.begin("core.search", time.Now(), root, i, 0, true)}
			at.open(time.Now())
			s.Quality, s.Perf = at.quality(s.Quality), at.perf(s.Perf)
			cfg.Progress = func(info core.StepInfo) { clock.progress(info); at.progress() }
		}
		res, err := s.Search(cfg)
		if at != nil {
			at.end()
		}
		if err != nil {
			return fmt.Errorf("analytic search %d of round %d: %w", k, i, err)
		}
		if k == 0 {
			all.startMs = clock.startMs
		}
		all.gapsMs = append(all.gapsMs, clock.gapsMs...)
		history = append(history, res.History...)
	}
	w.record(all, searchSize{steps: z.searches * z.steps}, history, nil)
	if tr != nil {
		r.pretrainRate = append(r.pretrainRate, float64(z.sim*z.epochs)/pretrain.Seconds())
		r.finetuneMs = append(r.finetuneMs, ms(finetune))
		r.nrmse = append(r.nrmse, postMeasured)
		r.model = model
	}
	return nil
}

func (r *analyticRunner) measure(budget time.Duration, tr *tracer) (*window, *window, error) {
	return rounds(budget, tr, func(i int, w *window, tr *tracer) error {
		return r.round(r.size, mixSeed(r.o.seed, i), w, tr, i)
	})
}

func (r *analyticRunner) layers(u, t *window, tr *tracer, budget time.Duration) (map[string]float64, error) {
	m := map[string]float64{}
	m["core.perf_eval_us"] = median(tr.durations("core.perf_eval")) * 1e3
	m["core.coordinator_other_ms_p50"] = median(tr.selfOf("core.step"))
	m["perfmodel.pretrain_samples_per_s"] = median(r.pretrainRate)
	m["perfmodel.finetune_ms"] = median(r.finetuneMs)
	m["perfmodel.nrmse_finetuned"] = median(r.nrmse)
	p := newProber(budget, 8)
	p.tensorDense(m)
	p.denseTrainStep(m)
	p.simulators(m, r.env, r.vs, r.o.seed)
	p.predict(m, r.model, r.env.ds.Space.Features(r.env.ds.BaselineAssignment()))
	return m, nil
}

// analyticTrace is the step ledger of the analytic loop, which calls only
// its two evaluators and Progress: a step runs from one Progress to the
// next, and what the evaluator spans leave is the controller's sampling
// and update.
type analyticTrace struct {
	t      *tracer
	search int
	step   int
	stepNo int
}

func (at *analyticTrace) open(now time.Time) {
	at.step = at.t.begin("core.step", now, at.search, at.stepNo, 0, true)
	at.stepNo++
}

func (at *analyticTrace) progress() {
	now := time.Now()
	at.t.finish(at.step, now)
	at.open(now)
}

// end closes the search; the step opened by the last Progress holds the
// final evaluation of the best architecture.
func (at *analyticTrace) end() {
	now := time.Now()
	at.t.finish(at.step, now)
	at.t.finish(at.search, now)
}

func (at *analyticTrace) quality(fn core.QualityFunc) core.QualityFunc {
	return func(a space.Assignment) float64 {
		t0 := time.Now()
		q := fn(a)
		at.t.add("core.quality_eval", t0, time.Now(), at.step, at.stepNo-1, 0)
		return q
	}
}

func (at *analyticTrace) perf(fn core.PerfFunc) core.PerfFunc {
	return func(a space.Assignment) []float64 {
		t0 := time.Now()
		out := fn(a)
		at.t.add("core.perf_eval", t0, time.Now(), at.step, at.stepNo-1, 0)
		return out
	}
}
