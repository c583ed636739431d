package experiments

import (
	"fmt"
	"math"

	"h2onas/internal/arch"
	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/hwsim"
	"h2onas/internal/models"
	"h2onas/internal/pareto"
	"h2onas/internal/perfmodel"
	"h2onas/internal/reward"
	"h2onas/internal/space"
)

// fig5Targets is the paper's training-step-latency target sweep: 0.75×
// to 1.5× of the baseline DLRM's step time (Section 6.1, footnote 3).
var fig5Targets = []float64{0.75, 1.0, 1.25, 1.5}

// Fig5RewardAblation regenerates Figure 5: the single-sided ReLU reward
// vs the TuNAS absolute reward on DLRM one-shot searches across the
// latency-target sweep. The shapes to reproduce: (a) the ReLU reward's
// Pareto front dominates; (b) at comparable quality, ReLU finds up to
// ~13 % faster models; (c) at comparable step time, ReLU finds up to
// ~0.4 % better quality; and the ReLU models average ~1.6 % smaller
// serving memory.
func Fig5RewardAblation(sc Scale) *Report {
	r := newReport("fig5", "ReLU vs absolute reward on DLRM searches",
		"reward", "target", "best step time (µs)", "best quality", "serving MB", "meets targets")

	cfgSpace := space.SmallDLRMConfig()
	ds := space.NewDLRMSpace(cfgSpace)
	chip := hwsim.TPUv4()

	// The reward contrast needs supernets trained well enough for quality
	// differences to dominate evaluation noise: double the step/batch
	// budget relative to the scale's search defaults.
	steps, batch := sc.SearchSteps*2, sc.SearchBatch*2

	collect := func(kind reward.Kind) (finals, tails []pareto.Point, sizes []float64) {
		for ti, factor := range fig5Targets {
			// Traffic and search are seeded apart, so the stream is built
			// here and not from the run's seed.
			stream := datapipe.NewStream(core.DLRMTraffic(cfgSpace), sc.Seed+uint64(ti))
			s, err := core.NewDLRMSearcher(ds, chip, kind, factor, stream)
			if err != nil {
				panic(err)
			}
			res, err := s.Search(core.OneShotConfig(sc.SearchShards, steps, batch, sc.WarmupSteps, sc.Seed+uint64(ti)*7))
			if err != nil {
				panic(err)
			}
			finals = append(finals, pareto.Point{
				ID:      fmt.Sprintf("%s@%.2fx", kind, factor),
				Quality: res.FinalQuality,
				Cost:    res.BestPerf[0],
			})
			// The late-search candidate population is the scatter the
			// paper clusters into buckets (Figures 5b/5c).
			tail := res.Candidates[len(res.Candidates)*3/4:]
			for _, c := range tail {
				tails = append(tails, pareto.Point{Quality: c.Quality, Cost: c.Perf[0]})
			}
			sizes = append(sizes, res.BestPerf[1])
			r.AddRow(kind.String(), fmt.Sprintf("%.2fx", factor),
				fmt.Sprintf("%.0f", res.BestPerf[0]*1e6),
				fmt.Sprintf("%.4f", res.FinalQuality),
				fmt.Sprintf("%.2f", res.BestPerf[1]/1e6),
				fmt.Sprintf("%v", s.Reward.MeetsTargets(res.BestPerf)))
		}
		return finals, tails, sizes
	}

	reluFinals, reluTails, reluSizes := collect(reward.ReLU)
	absFinals, absTails, absSizes := collect(reward.Absolute)

	// Figure 5a: how much of the absolute-reward front the ReLU front
	// dominates, and vice versa.
	r.Metrics["relu_dominates_abs_frac"] = dominatedFraction(reluFinals, absFinals)
	r.Metrics["abs_dominates_relu_frac"] = dominatedFraction(absFinals, reluFinals)

	// Figure 5b: bucketize by quality, compare mean step times (relative).
	imp := bucketImprovement(pareto.BucketizeByQuality(reluTails, 5), pareto.BucketizeByQuality(absTails, 5), true)
	r.Metrics["steptime_improvement_best_pct"] = imp * 100
	// Figure 5c: bucketize by step time, compare mean quality (absolute
	// percentage points, as quality itself is a percentage-like score).
	qimp := bucketImprovement(pareto.BucketizeByCost(reluTails, 5), pareto.BucketizeByCost(absTails, 5), false)
	r.Metrics["quality_improvement_best_pp"] = qimp * 100

	r.Metrics["memory_ratio"] = mean(reluSizes) / mean(absSizes)

	r.AddNote("paper 5a: ReLU front dominates — measured: ReLU dominates %.0f%% of absolute's final models, absolute dominates %.0f%% of ReLU's",
		r.Metrics["relu_dominates_abs_frac"]*100, r.Metrics["abs_dominates_relu_frac"]*100)
	r.AddNote("paper 5b: up to 13%% better step time at equal quality — measured best-bucket improvement %.1f%%", imp*100)
	r.AddNote("paper 5c: up to 0.4%% better quality at equal step time — measured best-bucket improvement %.2f pp", qimp*100)
	r.AddNote("paper: ReLU models average 1.6%% smaller serving memory — measured ratio %.3f", r.Metrics["memory_ratio"])
	return r
}

// dominatedFraction returns the fraction of b's points dominated by some
// point of a.
func dominatedFraction(a, b []pareto.Point) float64 {
	if len(b) == 0 {
		return 0
	}
	dominated := 0
	for _, pb := range b {
		for _, pa := range a {
			if pareto.Dominates(pa, pb) {
				dominated++
				break
			}
		}
	}
	return float64(dominated) / float64(len(b))
}

// bucketImprovement aligns two bucket lists by overlapping key ranges and
// returns the best improvement of a over b: for cost buckets
// (lowerBetter) the largest relative step-time reduction (b−a)/b; for
// quality buckets the largest absolute quality gain a−b.
func bucketImprovement(a, b []pareto.Bucket, lowerBetter bool) float64 {
	best := math.Inf(-1)
	for _, ba := range a {
		for _, bb := range b {
			// Overlapping key ranges → comparable buckets.
			if ba.Lo > bb.Hi || bb.Lo > ba.Hi {
				continue
			}
			var imp float64
			if lowerBetter {
				imp = (bb.Mean - ba.Mean) / bb.Mean
			} else {
				imp = ba.Mean - bb.Mean
			}
			if imp > best {
				best = imp
			}
		}
	}
	if math.IsInf(best, -1) {
		return 0
	}
	return best
}

// Table1PerfModel regenerates Table 1: the two-phase performance model.
// Shapes to reproduce: sub-percent NRMSE of the pretrained model on
// simulator data; double-digit NRMSE of the pretrained model against
// hardware measurements; ~order-of-magnitude reduction after fine-tuning
// on O(20) measurements.
func Table1PerfModel(sc Scale) *Report {
	r := newReport("table1", "Two-phase performance model quality (cf. Table 1)",
		"quantity", "value")
	ds := space.NewDLRMSpace(space.SmallDLRMConfig())
	chip := hwsim.TPUv4()

	sim := core.SimulatorSamples(ds, chip, sc.PretrainSamples, sc.Seed)
	holdSim := core.SimulatorSamples(ds, chip, sc.PretrainSamples/5, sc.Seed+1)
	measured := core.MeasuredSamples(ds, chip, sc.FineTuneSamples, sc.Seed+2)
	holdMeas := core.MeasuredSamples(ds, chip, 200, sc.Seed+3)

	m := perfmodel.New(len(ds.Space.Decisions), sc.PretrainHidden, sc.Seed)
	if err := m.Pretrain(sim, perfmodel.TrainConfig{
		Epochs: sc.PretrainEpochs, BatchSize: 256, LR: 1e-3, Seed: sc.Seed,
	}); err != nil {
		panic(err)
	}
	preSim := m.NRMSE(holdSim, perfmodel.TrainHead)
	preMeas := m.NRMSE(holdMeas, perfmodel.TrainHead)
	if err := m.FineTune(measured, perfmodel.DefaultFineTuneConfig()); err != nil {
		panic(err)
	}
	postMeas := m.NRMSE(holdMeas, perfmodel.TrainHead)

	r.AddRow("search space size", fmt.Sprintf("O(10^%.0f)", ds.Space.Log10Size()))
	r.AddRow("pretraining samples", fmt.Sprintf("%d", len(sim)))
	r.AddRow("NRMSE pretrained on sim holdout", fmt.Sprintf("%.2f%%", preSim*100))
	r.AddRow("finetuning samples", fmt.Sprintf("%d", len(measured)))
	r.AddRow("NRMSE pretrained on measurements", fmt.Sprintf("%.1f%%", preMeas*100))
	r.AddRow("NRMSE finetuned on measurements", fmt.Sprintf("%.2f%%", postMeas*100))

	r.Metrics["nrmse_pretrain_sim"] = preSim
	r.Metrics["nrmse_pretrain_measured"] = preMeas
	r.Metrics["nrmse_finetuned_measured"] = postMeas
	r.Metrics["finetune_reduction"] = preMeas / math.Max(postMeas, 1e-9)

	r.AddNote("paper: 0.31–0.47%% on sim; 14.7–42.9%% pretrained-vs-hardware; 1.05–3.08%% after fine-tuning (10× reduction)")
	r.AddNote("measured: %.2f%% / %.1f%% / %.2f%% (%.1f× reduction)", preSim*100, preMeas*100, postMeas*100, r.Metrics["finetune_reduction"])
	return r
}

// Fig8DLRMStepTime regenerates Figure 8: baseline DLRM vs DLRM-H training
// step time, decomposed into embedding and DNN phases with the step being
// their MAX. Shape: baseline is MLP-dominated; DLRM-H rebalances the
// phases and lands ~10 % faster with a small quality gain.
func Fig8DLRMStepTime() *Report {
	r := newReport("fig8", "DLRM-H training step time, normalized to baseline DLRM",
		"model", "step (µs)", "embedding (µs)", "DNN (µs)", "normalized step", "serving MB")
	ds := space.NewDLRMSpace(models.ProductionShapeDLRMConfig())
	chip := hwsim.TPUv4()
	opts := hwsim.Options{Mode: hwsim.Training}

	base := ds.Graph(models.BaselineDLRM(ds))
	opt := ds.Graph(models.DLRMH(ds))
	rb := hwsim.Simulate(base, chip, opts)
	ro := hwsim.Simulate(opt, chip, opts)
	servingBytes := func(g *arch.Graph) float64 { return g.Params * float64(g.DTypeBytes) }

	row := func(name string, res hwsim.Result, g *arch.Graph) {
		r.AddRow(name,
			fmt.Sprintf("%.0f", res.StepTime*1e6),
			fmt.Sprintf("%.0f", res.EmbedTime*1e6),
			fmt.Sprintf("%.0f", res.DenseTime*1e6),
			fmt.Sprintf("%.3f", res.StepTime/rb.StepTime),
			fmt.Sprintf("%.1f", servingBytes(g)/1e6))
	}
	row("DLRM (baseline)", rb, base)
	row("DLRM-H", ro, opt)

	r.Metrics["speedup"] = rb.StepTime / ro.StepTime
	r.Metrics["baseline_imbalance"] = rb.DenseTime / rb.EmbedTime
	r.Metrics["optimized_balance"] = ro.DenseTime / ro.EmbedTime
	r.Metrics["size_ratio"] = servingBytes(opt) / servingBytes(base)

	r.AddNote("paper: 10+%% end-to-end speedup with +0.02%% quality; step time is MAX(embedding, DNN)")
	r.AddNote("measured: %.2f× speedup; baseline DNN/embedding imbalance %.2f → optimized %.2f",
		r.Metrics["speedup"], r.Metrics["baseline_imbalance"], r.Metrics["optimized_balance"])
	return r
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
