// Command h2onas runs a hardware-optimized neural architecture search from
// the command line.
//
// Usage:
//
//	h2onas -domain dlrm -steps 300 -shards 8 -reward relu -latency 0.85
//	h2onas -domain cnn  -steps 200 -shards 8 -chip tpuv4
//	h2onas -domain vit  -steps 200 -shards 8 -chip tpuv4
//
// The dlrm and nlp domains run the full one-shot weight-sharing search
// against synthetic traffic (checkpoints, -fail-shard and -result-out
// included); the cnn/vit domains run the analytic search with the
// calibrated accuracy model. -strategy picks the search rule everywhere.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"h2onas"

	"h2onas/internal/controller"
	"h2onas/internal/core"
	"h2onas/internal/hwsim"
	"h2onas/internal/metrics"
	"h2onas/internal/quality"
	"h2onas/internal/reward"
	"h2onas/internal/shardrpc"
	"h2onas/internal/space"
)

// The flags every domain's search is configured from.
var (
	domain     = flag.String("domain", "dlrm", "search domain: dlrm, cnn, vit, or nlp")
	steps      = flag.Int("steps", 300, "search steps")
	shards     = flag.Int("shards", 8, "parallel accelerator shards")
	batch      = flag.Int("batch", 64, "per-shard batch size (dlrm, nlp)")
	warmup     = flag.Int("warmup", 40, "weight warmup steps (dlrm, nlp)")
	rewardKind = flag.String("reward", "relu", "reward function: relu or absolute")
	strategy   = flag.String("strategy", "reinforce", "search strategy: reinforce, random, evolution, or halving")
	latency    = flag.Float64("latency", 1.0, "step-time target as a fraction of baseline")
	chipName   = flag.String("chip", "tpuv4", "target chip: tpuv4, tpuv4i, v100")
	chipFile   = flag.String("chip-file", "", "load a custom chip configuration (JSON, see hwsim.SaveChip) instead of -chip")
	seed       = flag.Uint64("seed", 1, "random seed")
	verbose    = flag.Bool("v", false, "print per-step progress")
	metricsOut = flag.String("metrics-out", "", "write a JSON metrics snapshot to this file after the search")
	noMetrics  = flag.Bool("no-metrics", false, "disable the observability layer (skips the end-of-run summary)")
	ckptDir    = flag.String("checkpoint-dir", "", "write full-state search snapshots to this directory")
	ckptEvery  = flag.Int("checkpoint-every", 25, "snapshot every N search steps (with -checkpoint-dir)")
	ckptRetain = flag.Int("checkpoint-retain", 3, "keep only the newest N snapshots (0 keeps all)")
	resume     = flag.Bool("resume", false, "resume from the newest valid snapshot in -checkpoint-dir")
	workers    = flag.String("workers", "", "comma-separated shardworker addresses; runs the search over TCP with one remote worker per shard (overrides -shards); each worker's GOMAXPROCS is its core budget, and -cores does not reach it")
	rpcTimeout = flag.Duration("rpc-timeout", 0, "per-call deadline for remote shard RPCs (with -workers; 0 uses the default)")
	resultOut  = flag.String("result-out", "", "write the deterministic search result as JSON to this file")
	failShard  = flag.String("fail-shard", "", "fail shards in-process for reproduction, as shard:step[,shard:step...] — shard s fails every step ≥ step")
	cores      = flag.Int("cores", 0, "total core budget partitioned across shard workers and kernels; performance-only, never moves a bit (0 = GOMAXPROCS)")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
)

func main() {
	flag.Parse()

	// Every domain's step-time target is baseline × -latency, and a
	// reward target must be positive (NaN fails the comparison too).
	if !(*latency > 0) {
		usagef("-latency %v: the step-time target must be a positive fraction of baseline", *latency)
	}
	if *workers != "" && *failShard != "" {
		fatalf("-fail-shard reproduces a degraded run in-process; it cannot be combined with -workers")
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("creating -cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("starting CPU profile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// Deferred so it captures the post-search heap; fatalf paths exit
		// without a profile, which is fine — profiles are for good runs.
		defer writeHeapProfile(*memProfile)
	}

	// The registry instruments every layer of the run: the search loop,
	// the controller, the data pipeline and the simulator. It prints as a
	// summary table at exit and optionally persists via -metrics-out.
	reg := metrics.New()
	if *noMetrics {
		reg = metrics.Nop()
	}
	hwsim.SetMetrics(reg)

	chip, err := hwsim.ResolveChip(*chipName, *chipFile)
	if err != nil {
		fatalf("%v", err)
	}
	kind, err := reward.KindByName(*rewardKind)
	if err != nil {
		fatalf("%v", err)
	}

	switch *domain {
	case "dlrm", "nlp":
		runOneShot(chip, kind, reg)
	case "cnn", "vit":
		runVision(chip, kind, reg)
	default:
		fatalf("unknown domain %q (want dlrm, cnn, vit, or nlp)", *domain)
	}

	if summary := reg.Summary(); summary != "" {
		fmt.Printf("\n— run metrics —\n%s", summary)
	}
	if *metricsOut != "" {
		if err := writeMetricsSnapshot(reg, *metricsOut); err != nil {
			fatalf("writing metrics snapshot: %v", err)
		}
		fmt.Printf("metrics snapshot written to %s\n", *metricsOut)
	}
}

// writeHeapProfile persists a post-GC heap profile for -memprofile.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "creating -memprofile: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC() // materialize up-to-date allocation statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "writing heap profile: %v\n", err)
	}
}

// writeMetricsSnapshot persists the registry as indented JSON.
func writeMetricsSnapshot(reg *metrics.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// configure fills the flag-driven part of a search config, the same for
// every domain: the core budget, the registry, the strategy (over sp, with
// the number of evaluations that reach it), checkpointing, the remote
// fleet or the in-process shard faults, and progress. What a domain's
// searcher cannot honour, its Search refuses. A dialled cfg.Transport is
// the caller's to close.
func configure(cfg *core.Config, sp *space.Space, evaluations int, reg *metrics.Registry) {
	cfg.Workers = *cores
	cfg.Metrics = reg
	strat, err := core.StrategyByName(*strategy, sp, evaluations)
	if err != nil {
		fatalf("%v", err)
	}
	cfg.Strategy = strat
	cfg.CheckpointDir = *ckptDir
	cfg.CheckpointEvery = *ckptEvery
	cfg.CheckpointRetain = *ckptRetain
	cfg.Resume = *resume
	if *failShard != "" {
		fails, err := parseFailShards(*failShard)
		if err != nil {
			fatalf("parsing -fail-shard: %v", err)
		}
		for shard := range fails {
			if shard >= cfg.Shards {
				usagef("-fail-shard %d: the run has shards 0..%d, so the fault would never fire", shard, cfg.Shards-1)
			}
		}
		cfg.ShardFault = func(step, shard, attempt int) error {
			if from, ok := fails[shard]; ok && step >= from {
				return fmt.Errorf("injected failure: shard %d down from step %d", shard, from)
			}
			return nil
		}
	}
	if *verbose {
		cfg.Progress = progress
	}
	if *workers != "" {
		tr, err := shardrpc.Dial(strings.Split(*workers, ","), shardrpc.Options{Timeout: *rpcTimeout, Seed: *seed})
		if err != nil {
			fatalf("distributed search: %v", err)
		}
		cfg.Transport = tr
	}
}

// runOneShot runs a weight-sharing search against synthetic traffic: the
// DLRM super-network (dlrm) or the pure transformer one (nlp). The domains
// share one config and differ only in the search called and the report
// line printed.
func runOneShot(chip h2onas.Chip, kind reward.Kind, reg *metrics.Registry) {
	nShards := *shards
	if *workers != "" {
		// One remote worker per shard: the fleet defines the shard count.
		nShards = strings.Count(*workers, ",") + 1
	}
	// The banner, the strategy and the report read the space; the façade
	// search builds the searcher's own from the same model.
	var (
		label  string
		sp     *space.Space
		search func(core.Config) (*core.Outcome, error)
		report func(*core.Outcome)
	)
	if *domain == "dlrm" {
		model := space.SmallDLRMConfig()
		label, sp = "DLRM", space.NewDLRMSpace(model).Space
		search = func(cfg core.Config) (*core.Outcome, error) {
			res, err := h2onas.SearchDLRM(model, h2onas.DLRMTraffic(model), chip, kind, *latency, cfg)
			if res == nil {
				return nil, err
			}
			return &res.Outcome, err
		}
		report = func(out *core.Outcome) {
			fmt.Printf("quality %.4f | train step %.0fµs | serving %.2fMB | examples consumed %d\n",
				out.FinalQuality, out.BestPerf[0]*1e6, out.BestPerf[1]/1e6, out.ExamplesSeen)
		}
	} else {
		model := space.SmallViTConfig()
		label, sp = "transformer", space.NewTransformerSpace(model).Space
		search = func(cfg core.Config) (*core.Outcome, error) {
			res, err := h2onas.SearchTransformer(model, h2onas.DefaultSeqConfig(), chip, kind, *latency, cfg)
			if res == nil {
				return nil, err
			}
			return &res.Outcome, err
		}
		report = func(out *core.Outcome) {
			fmt.Printf("quality %.4f | step time %.0fµs\n", out.FinalQuality, out.BestPerf[0]*1e6)
		}
	}
	cfg := h2onas.OneShotSearchConfig(nShards, *steps, *batch, *warmup, *seed)
	// The sandwich shard's maximal candidate never reaches the strategy.
	configure(&cfg, sp, *steps*max(1, nShards-1), reg)
	if cfg.Transport != nil {
		defer cfg.Transport.Close()
	}
	fmt.Printf("searching %s space (log10 size %.1f) on %s, %d shards × %d steps, %s strategy, %s reward, latency target %.2fx baseline\n",
		label, sp.Log10Size(), chip.Name, nShards, *steps, *strategy, kind, *latency)
	out, err := search(cfg)
	if err != nil {
		fatalf("search failed: %v", err)
	}
	if out.ResumedFrom > 0 {
		fmt.Printf("resumed from checkpoint at step %d\n", out.ResumedFrom)
	}
	fmt.Printf("\nfinal architecture: %s\n", sp.Describe(out.Best))
	report(out)
	if *resultOut != "" {
		data, err := out.ResultDocument(sp)
		if err == nil {
			err = os.WriteFile(*resultOut, data, 0o644)
		}
		if err != nil {
			fatalf("writing result: %v", err)
		}
		fmt.Printf("result written to %s\n", *resultOut)
	}
}

// parseFailShards parses "shard:step[,shard:step...]" into a map from
// shard index to the first failing step.
func parseFailShards(s string) (map[int]int, error) {
	fails := make(map[int]int)
	for _, part := range strings.Split(s, ",") {
		var shard, from int
		if _, err := fmt.Sscanf(part, "%d:%d", &shard, &from); err != nil {
			return nil, fmt.Errorf("%q is not shard:step", part)
		}
		if shard < 0 || from < 0 {
			return nil, fmt.Errorf("%q has a negative shard or step", part)
		}
		fails[shard] = from
	}
	return fails, nil
}

func runVision(chip h2onas.Chip, kind reward.Kind, reg *metrics.Registry) {
	if *resultOut != "" {
		fatalf("-result-out: the %s domain runs the analytic search, which produces no result document", *domain)
	}
	// The objectives price a candidate; the reward here weighs accuracy
	// against an arbitrary reference at 2×.
	obj := &core.VisionObjectives{Chip: chip, Dataset: quality.ImageNet1K}
	var sp *space.Space
	if *domain == "cnn" {
		obj.CNN = space.NewCNNSpace(space.DefaultCNNConfig())
		sp = obj.CNN.Space
	} else {
		obj.ViT, obj.Dataset = space.NewHybridViTSpace(space.DefaultViTConfig()), quality.ImageNet21K
		sp = obj.ViT.Space
	}
	base := obj.Evaluate(make(space.Assignment, len(sp.Decisions))) // arbitrary reference
	rw, err := reward.New(kind,
		reward.Objective{Name: "train_step_time", Target: base.Train.StepTime * *latency, Beta: -3},
	)
	if err != nil {
		fatalf("search failed: %v", err)
	}
	s := &core.AnalyticSearcher{
		Space:  sp,
		Reward: rw,
		Quality: func(a space.Assignment) float64 {
			return (obj.Evaluate(a).Accuracy - base.Accuracy) * 2
		},
		Perf: func(a space.Assignment) []float64 {
			return []float64{obj.Evaluate(a).Train.StepTime}
		},
	}
	cfg := h2onas.SearchConfig{
		Shards: *shards, Steps: *steps,
		Controller: controller.Config{LearningRate: 0.1, BaselineMomentum: 0.9, EntropyWeight: 2e-3},
		Seed:       *seed,
	}
	// Every analytic evaluation reaches the strategy: no sandwich shard.
	configure(&cfg, sp, *steps**shards, reg)
	if cfg.Transport != nil {
		defer cfg.Transport.Close()
	}
	fmt.Printf("searching %s space (log10 size %.1f) on %s, %d shards × %d steps, %s strategy\n",
		*domain, sp.Log10Size(), chip.Name, *shards, *steps, *strategy)
	res, err := s.Search(cfg)
	if err != nil {
		fatalf("search failed: %v", err)
	}
	fmt.Printf("\nfinal architecture: %s\n", sp.Describe(res.Best))
	fmt.Printf("accuracy %.2f%% | step time %.2fms (baseline %.2fms)\n",
		obj.Evaluate(res.Best).Accuracy, res.BestPerf[0]*1e3, base.Train.StepTime*1e3)
}

func progress(info core.StepInfo) {
	if info.Step%20 == 0 {
		fmt.Printf("step %4d  reward %+.4f  quality %+.4f  entropy %.1f  confidence %.2f\n",
			info.Step, info.MeanReward, info.MeanQ, info.Entropy, info.Confidence)
	}
}

// usagef reports a flag value no run can honour the way flag itself
// does: message plus usage, exit code 2.
func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
