package experiments

import (
	"fmt"
	"math"

	"h2onas/internal/controller"
	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/hwsim"
	"h2onas/internal/models"
	"h2onas/internal/nn"
	"h2onas/internal/quality"
	"h2onas/internal/reward"
	"h2onas/internal/space"
	"h2onas/internal/supernet"
	"h2onas/internal/tensor"
)

// Fig10Production regenerates Figure 10: zero-touch Pareto optimization of
// the production fleet (five CV models, three DLRMs). Each model gets its
// own search, its own constraints, and its own quality/performance
// priorities; quality is always first, and some models (CV5, DLRM3)
// deliberately trade performance for quality. Shapes: CV ≈1.29× mean
// performance at +2.8 pp quality; DLRM ≈1.22× at +0.12 pp; with
// double-digit fleet energy savings.
func Fig10Production(sc Scale) *Report {
	r := newReport("fig10", "Zero-touch optimization of the production fleet",
		"model", "perf gain", "quality gain (pp)", "energy ratio", "note")

	var cvPerf, cvQual, dlrmPerf, dlrmQual []float64
	var energyRatios []float64

	for _, m := range models.ProductionFleet() {
		var perfGain, qualGain, energyRatio float64
		note := ""
		switch m.Domain {
		case "cv":
			perfGain, qualGain, energyRatio = optimizeCV(m, sc)
			cvPerf = append(cvPerf, perfGain)
			cvQual = append(cvQual, qualGain)
		case "dlrm":
			perfGain, qualGain, energyRatio = optimizeDLRM(m, sc)
			dlrmPerf = append(dlrmPerf, perfGain)
			dlrmQual = append(dlrmQual, qualGain)
		}
		if m.LatencyTargetFactor > 1 {
			note = "quality-first (allows slowdown)"
		}
		energyRatios = append(energyRatios, energyRatio)
		r.AddRow(m.Name, fmt.Sprintf("%.2fx", perfGain), fmt.Sprintf("%+.2f", qualGain),
			fmt.Sprintf("%.2f", energyRatio), note)
	}

	r.Metrics["cv_perf_geomean"] = geomean(cvPerf)
	r.Metrics["cv_quality_mean_pp"] = mean(cvQual)
	r.Metrics["dlrm_perf_geomean"] = geomean(dlrmPerf)
	r.Metrics["dlrm_quality_mean_pp"] = mean(dlrmQual)
	r.Metrics["fleet_energy_saving_pct"] = (1 - geomean(energyRatios)) * 100

	r.AddNote("paper: CV 1.29× perf / +2.83 pp quality; DLRM 1.22× / +0.12 pp; 15–27%% datacenter energy savings")
	r.AddNote("measured: CV %.2f× / %+.2f pp; DLRM %.2f× / %+.2f pp; fleet energy saving %.0f%%",
		r.Metrics["cv_perf_geomean"], r.Metrics["cv_quality_mean_pp"],
		r.Metrics["dlrm_perf_geomean"], r.Metrics["dlrm_quality_mean_pp"],
		r.Metrics["fleet_energy_saving_pct"])
	return r
}

// optimizeCV runs the analytic RL search for one production CV model and
// returns (perf gain, quality gain in pp, energy ratio).
func optimizeCV(m models.ProductionModel, sc Scale) (perfGain, qualGain, energyRatio float64) {
	obj := &core.VisionObjectives{CNN: space.NewCNNSpace(*m.CNN), Chip: hwsim.TPUv4(), Dataset: quality.ImageNet1K}
	base := obj.Evaluate(obj.CNN.BaselineAssignment())

	rw := reward.MustNew(reward.ReLU,
		reward.Objective{Name: "train_step_time", Target: base.Train.StepTime * m.LatencyTargetFactor, Beta: -3 / m.QualityWeight},
		reward.Objective{Name: "model_size", Target: base.Params * 1.05, Beta: -1 / m.QualityWeight},
	)
	s := &core.AnalyticSearcher{
		Space:  obj.CNN.Space,
		Reward: rw,
		// Quality is the first priority (Section 7.3): accuracy gains
		// enter the reward at 2× weight, accuracy losses at 8×, so a
		// model cannot buy speed with below-baseline accuracy.
		Quality: func(a space.Assignment) float64 {
			d := obj.Evaluate(a).Accuracy - base.Accuracy
			if d < 0 {
				return d * 8
			}
			return d * 2
		},
		Perf: func(a space.Assignment) []float64 {
			ev := obj.Evaluate(a)
			return []float64{ev.Train.StepTime, ev.Params}
		},
	}
	res, err := s.Search(core.Config{
		Shards: sc.SearchShards, Steps: sc.SearchSteps,
		Controller: controller.Config{LearningRate: 0.1, BaselineMomentum: 0.9, EntropyWeight: 2e-3},
		Seed:       m.Seed,
	})
	if err != nil {
		panic(err)
	}
	best := obj.Evaluate(res.Best)
	return base.Train.StepTime / best.Train.StepTime,
		best.Accuracy - base.Accuracy,
		best.Train.Energy / base.Train.Energy
}

// optimizeDLRM runs the live super-network search for one production DLRM
// and returns (perf gain, quality gain in pp, energy ratio). The quality
// baseline trains the baseline architecture alone on the same data budget.
func optimizeDLRM(m models.ProductionModel, sc Scale) (perfGain, qualGain, energyRatio float64) {
	ds := space.NewDLRMSpace(*m.DLRM)
	obj := &core.DLRMObjectives{DS: ds, Chip: hwsim.TPUv4()}
	base := obj.BaselinePerf()
	rw := reward.MustNew(reward.ReLU,
		reward.Objective{Name: "train_step_time", Target: base[0] * m.LatencyTargetFactor, Beta: -2 / m.QualityWeight},
		reward.Objective{Name: "serving_memory", Target: base[1], Beta: -1 / m.QualityWeight},
	)
	// Production traffic: informativeness decays steeply across sparse
	// features, so the tail tables carry almost pure noise — the waste a
	// zero-touch search reclaims without losing quality.
	ctr := core.DLRMTraffic(*m.DLRM)
	ctr.SignalDecay = 0.5
	s := &core.Searcher{DS: ds, Reward: rw, Perf: obj.Perf,
		Stream: datapipe.NewStream(ctr, m.Seed)}
	res, err := s.Search(core.OneShotConfig(sc.SearchShards, sc.SearchSteps*2, sc.SearchBatch*2, sc.WarmupSteps, m.Seed))
	if err != nil {
		panic(err)
	}
	// As in production (Section 7.3), the found architecture is retrained
	// from scratch without the one-shot overhead, then passes the launch
	// criteria: quality is the first priority, so a retrained candidate
	// that regresses is not deployed. The gate first falls back to the
	// best quality among target-meeting candidates the search evaluated,
	// and finally to the incumbent baseline.
	retrainSteps := (sc.WarmupSteps + sc.SearchSteps*2) * sc.SearchShards
	retrain := func(a space.Assignment) float64 {
		return trainFixedDLRM(ds, ctr, a, retrainSteps, sc.SearchBatch*2, m.Seed+1)
	}
	baseQuality := retrain(ds.BaselineAssignment())
	launched := res.Best
	launchedQuality := retrain(launched)

	const launchTolerance = 0.003 // quality regression allowed at launch
	if launchedQuality < baseQuality-launchTolerance {
		if alt, ok := bestEvaluatedCandidate(res.Candidates, rw); ok {
			altQuality := retrain(alt)
			if altQuality > launchedQuality {
				launched, launchedQuality = alt, altQuality
			}
		}
	}
	if launchedQuality < baseQuality-launchTolerance {
		// The incumbent stays in production.
		launched, launchedQuality = ds.BaselineAssignment(), baseQuality
	}

	opts := hwsim.Options{Mode: hwsim.Training, Chips: ds.Config.Chips}
	baseRes := hwsim.Simulate(ds.Graph(ds.Decode(ds.BaselineAssignment())), obj.Chip, opts)
	bestRes := hwsim.Simulate(ds.Graph(ds.Decode(launched)), obj.Chip, opts)
	return baseRes.StepTime / bestRes.StepTime,
		(launchedQuality - baseQuality) * 100,
		bestRes.Energy / baseRes.Energy
}

// bestEvaluatedCandidate returns the highest-quality candidate from the
// last third of the search that meets every performance target.
func bestEvaluatedCandidate(cands []core.Candidate, rw *reward.Function) (space.Assignment, bool) {
	var best space.Assignment
	bestQ := math.Inf(-1)
	for _, c := range cands[len(cands)*2/3:] {
		if !rw.MeetsTargets(c.Perf) {
			continue
		}
		if c.Quality > bestQ {
			bestQ = c.Quality
			best = c.Assignment
		}
	}
	return best, best != nil
}

// trainFixedDLRM trains the baseline architecture alone for the search's
// data budget and returns its final quality — the reference the searched
// model's quality gain is measured against.
func trainFixedDLRM(ds *space.DLRMSpace, ctr datapipe.CTRConfig, a space.Assignment, steps, batch int, seed uint64) float64 {
	stream := datapipe.NewStream(ctr, seed)
	sn := supernet.New(ds, tensor.NewRNG(seed))
	opt := nn.NewAdam(0.003)
	for i := 0; i < steps; i++ {
		trainStep(sn, opt, a, stream.NextBatch(batch))
	}
	eval := stream.NextBatch(4096)
	eval.UseForArch()
	return sn.Quality(a, eval)
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}
