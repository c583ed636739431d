package experiments

import (
	"fmt"

	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/hwsim"
	"h2onas/internal/models"
	"h2onas/internal/nn"
	"h2onas/internal/reward"
	"h2onas/internal/space"
	"h2onas/internal/supernet"
	"h2onas/internal/tensor"
)

// Ablations of this implementation's own design choices (DESIGN.md §5/§6).
// They are exposed both as experiment runners (cmd/experiments -run abl)
// and as root-level benchmarks.

// AblationRegistry lists the ablation experiments.
func AblationRegistry() []Runner {
	return []Runner{
		{"abl-unified", "unified single-step vs TuNAS alternating search", AblUnifiedVsTuNAS},
		{"abl-sandwich", "sandwich super-network training on/off", AblSandwich},
		{"abl-vocab", "coarse vs fine embedding-vocabulary sharing", AblVocabSharing},
		{"abl-fusion", "simulator op fusion on/off", func(Scale) *Report { return AblFusion() }},
		{"baselines", "search-strategy battery: REINFORCE vs random / evolution / successive halving", Baselines},
	}
}

// ablationSearcher builds the small DLRM searcher the search ablations
// share: neutral targets on step time and memory.
func ablationSearcher(seed uint64) *core.Searcher {
	cfg := space.SmallDLRMConfig()
	s, err := core.NewDLRMSearcher(space.NewDLRMSpace(cfg), hwsim.TPUv4(), reward.ReLU, 1,
		datapipe.NewStream(core.DLRMTraffic(cfg), seed))
	if err != nil {
		panic(err)
	}
	return s
}

func ablationConfig(sc Scale, seed uint64) core.Config {
	return core.OneShotConfig(sc.SearchShards, sc.SearchSteps, sc.SearchBatch*2, sc.WarmupSteps, seed)
}

// AblUnifiedVsTuNAS compares the paper's unified single-step parallel
// algorithm against the TuNAS-style alternating baseline at equal data
// budget: final candidate quality and traffic consumed.
func AblUnifiedVsTuNAS(sc Scale) *Report {
	r := newReport("abl-unified", "Unified single-step vs TuNAS alternating search",
		"algorithm", "final quality", "examples consumed", "streams required")
	s := ablationSearcher(11)
	res, err := s.Search(ablationConfig(sc, 11))
	if err != nil {
		panic(err)
	}
	s2 := ablationSearcher(11)
	val := datapipe.NewStream(s2.Stream.Config(), 1011)
	res2, err := s2.TuNASSearch(ablationConfig(sc, 11), val)
	if err != nil {
		panic(err)
	}
	r.AddRow("unified single-step", fmt.Sprintf("%.4f", res.FinalQuality), fmt.Sprintf("%d", res.ExamplesSeen), "1 (train only)")
	r.AddRow("TuNAS alternating", fmt.Sprintf("%.4f", res2.FinalQuality), fmt.Sprintf("%d", res2.ExamplesSeen), "2 (train + validation)")
	r.Metrics["unified_quality"] = res.FinalQuality
	r.Metrics["tunas_quality"] = res2.FinalQuality
	r.Metrics["unified_examples"] = float64(res.ExamplesSeen)
	r.Metrics["tunas_examples"] = float64(res2.ExamplesSeen)
	r.AddNote("the unified algorithm needs no validation split (the in-memory pipeline's use-once guarantee replaces it) and parallelizes across shards; TuNAS alternates serially and splits its data budget")
	return r
}

// AblSandwich measures sandwich super-network training: the found
// architecture's size and quality with and without the always-max shard.
func AblSandwich(sc Scale) *Report {
	r := newReport("abl-sandwich", "Sandwich super-network training on/off",
		"arm", "final quality", "found serving MB")
	s := ablationSearcher(13)
	res, err := s.Search(ablationConfig(sc, 13))
	if err != nil {
		panic(err)
	}
	s2 := ablationSearcher(13)
	cfg := ablationConfig(sc, 13)
	cfg.DisableSandwich = true
	res2, err := s2.Search(cfg)
	if err != nil {
		panic(err)
	}
	r.AddRow("sandwich on", fmt.Sprintf("%.4f", res.FinalQuality), fmt.Sprintf("%.3f", res.BestPerf[1]/1e6))
	r.AddRow("sandwich off", fmt.Sprintf("%.4f", res2.FinalQuality), fmt.Sprintf("%.3f", res2.BestPerf[1]/1e6))
	r.Metrics["sandwich_quality"] = res.FinalQuality
	r.Metrics["no_sandwich_quality"] = res2.FinalQuality
	r.Metrics["sandwich_serving_mb"] = res.BestPerf[1] / 1e6
	r.Metrics["no_sandwich_serving_mb"] = res2.BestPerf[1] / 1e6
	r.AddNote("without the always-max shard, the shared weight corners dominate training and the one-shot proxy drifts toward the thinnest candidates (DESIGN.md §6)")
	return r
}

// AblVocabSharing trains a super-network under uniform random sampling in
// both vocabulary-sharing modes and compares the baseline architecture's
// in-supernet quality — the proxy-fidelity measure the choice trades off.
func AblVocabSharing(sc Scale) *Report {
	r := newReport("abl-vocab", "Coarse vs fine embedding-vocabulary sharing (Figure 3 ②)",
		"sharing", "baseline in-supernet quality")
	steps := sc.SearchSteps * 8
	coarse := trainRandomSupernet(supernet.Options{VocabSharing: supernet.CoarseVocab}, steps)
	fine := trainRandomSupernet(supernet.Options{VocabSharing: supernet.FineVocab}, steps)
	r.AddRow("coarse (paper default)", fmt.Sprintf("%.4f", coarse))
	r.AddRow("fine (folded)", fmt.Sprintf("%.4f", fine))
	r.Metrics["coarse_baseline_quality"] = coarse
	r.Metrics["fine_baseline_quality"] = fine
	r.AddNote("scale-dependent: at laptop traffic volumes fine sharing's ~7× gradient density wins; at production volumes each coarse table sees ample data and isolation from fold collisions wins (the paper's regime)")
	return r
}

// trainRandomSupernet trains a super-network under uniform candidate
// sampling (with a max-network step every fourth step) and returns the
// baseline architecture's quality on a large fresh batch.
func trainRandomSupernet(opts supernet.Options, steps int) float64 {
	cfg := space.SmallDLRMConfig()
	ds := space.NewDLRMSpace(cfg)
	stream := datapipe.NewStream(core.DLRMTraffic(cfg), 7)
	sn := supernet.NewWithOptions(ds, tensor.NewRNG(7), opts)
	opt := nn.NewAdam(0.003)
	rng := tensor.NewRNG(8)
	maxA := core.MaxAssignment(ds.Space)
	for step := 0; step < steps; step++ {
		batch := stream.NextBatch(128)
		a := core.RandomAssignment(ds.Space, rng)
		if step%4 == 0 {
			a = maxA
		}
		trainStep(sn, opt, a, batch)
	}
	eval := stream.NextBatch(4096)
	eval.UseForArch()
	return sn.Quality(ds.BaselineAssignment(), eval)
}

// trainStep is one weight update of the super-network on a fixed
// architecture: the use-once batch protocol, then the clipped Adam step.
func trainStep(sn *supernet.Supernet, opt *nn.Adam, a space.Assignment, b *datapipe.Batch) {
	b.UseForArch()
	b.UseForWeights()
	nn.ZeroGrads(sn.Params())
	_, dout := sn.Loss(a, b)
	sn.Backward(dout)
	nn.ClipGradNorm(sn.Params(), 10)
	opt.Step(sn.Params())
}

// AblFusion measures the simulator's compiler op-fusion pass on CoAtNet-5.
func AblFusion() *Report {
	r := newReport("abl-fusion", "Simulator op-fusion pass on/off (CoAtNet-5, TPUv4)",
		"arm", "step time (ms)", "memory traffic (GB)")
	g := models.CoAtNet(5).Graph()
	chip := hwsim.TPUv4()
	fused := hwsim.Simulate(g, chip, hwsim.Options{Mode: hwsim.Training, Chips: 128})
	unfused := hwsim.Simulate(g, chip, hwsim.Options{Mode: hwsim.Training, Chips: 128, DisableFusion: true})
	r.AddRow("fusion on", fmt.Sprintf("%.1f", fused.StepTime*1e3), fmt.Sprintf("%.1f", (fused.HBMBytes+fused.CMEMBytes)/1e9))
	r.AddRow("fusion off", fmt.Sprintf("%.1f", unfused.StepTime*1e3), fmt.Sprintf("%.1f", (unfused.HBMBytes+unfused.CMEMBytes)/1e9))
	r.Metrics["unfused_over_fused"] = unfused.StepTime / fused.StepTime
	r.AddNote("fusing elementwise chains into their producers removes activation round-trips — the compiler optimization the paper's simulator models (§6.2.3); measured %.2f× slowdown without it", unfused.StepTime/fused.StepTime)
	return r
}
