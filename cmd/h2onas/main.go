// Command h2onas runs a hardware-optimized neural architecture search from
// the command line.
//
// Usage:
//
//	h2onas -domain dlrm -steps 300 -shards 8 -reward relu -latency 0.85
//	h2onas -domain cnn  -steps 200 -shards 8 -chip tpuv4
//	h2onas -domain vit  -steps 200 -shards 8 -chip tpuv4
//
// The DLRM domain runs the full one-shot weight-sharing search against
// synthetic production traffic; the cnn/vit domains run the analytic
// search with the calibrated accuracy model. -strategy picks the search
// rule in every domain.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

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

func main() {
	domain := flag.String("domain", "dlrm", "search domain: dlrm, cnn, vit, or nlp")
	steps := flag.Int("steps", 300, "search steps")
	shards := flag.Int("shards", 8, "parallel accelerator shards")
	batch := flag.Int("batch", 64, "per-shard batch size (dlrm)")
	warmup := flag.Int("warmup", 40, "weight warmup steps (dlrm)")
	rewardKind := flag.String("reward", "relu", "reward function: relu or absolute")
	strategy := flag.String("strategy", "reinforce", "search strategy: reinforce, random, evolution, or halving")
	latency := flag.Float64("latency", 1.0, "step-time target as a fraction of baseline")
	chipName := flag.String("chip", "tpuv4", "target chip: tpuv4, tpuv4i, v100")
	chipFile := flag.String("chip-file", "", "load a custom chip configuration (JSON, see hwsim.SaveChip) instead of -chip")
	seed := flag.Uint64("seed", 1, "random seed")
	verbose := flag.Bool("v", false, "print per-step progress")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics snapshot to this file after the search")
	noMetrics := flag.Bool("no-metrics", false, "disable the observability layer (skips the end-of-run summary)")
	ckptDir := flag.String("checkpoint-dir", "", "write full-state search snapshots to this directory (dlrm, nlp)")
	ckptEvery := flag.Int("checkpoint-every", 25, "snapshot every N search steps (with -checkpoint-dir)")
	ckptRetain := flag.Int("checkpoint-retain", 3, "keep only the newest N snapshots (0 keeps all)")
	resume := flag.Bool("resume", false, "resume from the newest valid snapshot in -checkpoint-dir")
	workers := flag.String("workers", "", "comma-separated shardworker addresses; runs the search over TCP with one remote worker per shard (dlrm; overrides -shards)")
	rpcTimeout := flag.Duration("rpc-timeout", 0, "per-call deadline for remote shard RPCs (with -workers; 0 uses the default)")
	resultOut := flag.String("result-out", "", "write the search result as JSON to this file (dlrm)")
	failShard := flag.String("fail-shard", "", "fail shards in-process for reproduction, as shard:step[,shard:step...] — shard s fails every step ≥ step (dlrm)")
	cores := flag.Int("cores", 0, "total core budget partitioned across shard workers and kernels; performance-only, never moves a bit (0 = GOMAXPROCS)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	// Every domain's step-time target is baseline × -latency, and a
	// reward target must be positive (NaN fails the comparison too).
	if !(*latency > 0) {
		usagef("-latency %v: the step-time target must be a positive fraction of baseline", *latency)
	}

	coreBudget = *cores
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
	searchMetrics = reg

	chip, err := hwsim.ResolveChip(*chipName, *chipFile)
	if err != nil {
		fatalf("%v", err)
	}
	kind, err := reward.KindByName(*rewardKind)
	if err != nil {
		fatalf("%v", err)
	}

	ckpt := checkpointing{dir: *ckptDir, every: *ckptEvery, retain: *ckptRetain, resume: *resume}
	if *resume && *ckptDir == "" {
		fatalf("-resume requires -checkpoint-dir")
	}
	if ckpt.enabled() && *domain != "dlrm" && *domain != "nlp" {
		fatalf("-checkpoint-dir and -resume are only wired into the weight-sharing domains (dlrm, nlp); the %s domain runs the analytic search, which has no weights to snapshot", *domain)
	}

	dist := distributed{rpcTimeout: *rpcTimeout, resultOut: *resultOut, failShard: *failShard}
	if *workers != "" {
		dist.workers = strings.Split(*workers, ",")
	}
	if (len(dist.workers) > 0 || dist.resultOut != "" || dist.failShard != "") && *domain != "dlrm" {
		fatalf("-workers, -result-out and -fail-shard are only wired into the dlrm domain")
	}
	if len(dist.workers) > 0 && dist.failShard != "" {
		fatalf("-fail-shard reproduces a degraded run in-process; it cannot be combined with -workers")
	}

	switch *domain {
	case "dlrm":
		runDLRM(chip, kind, *latency, *steps, *shards, *batch, *warmup, *seed, *verbose, *strategy, ckpt, dist)
	case "cnn", "vit":
		runVision(*domain, chip, kind, *latency, *steps, *shards, *seed, *verbose, *strategy)
	case "nlp":
		runNLP(chip, kind, *latency, *steps, *shards, *batch, *warmup, *seed, *verbose, *strategy, ckpt)
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

// searchMetrics is the run-wide registry handed to every search config.
var searchMetrics *metrics.Registry

// coreBudget is the -cores flag: the total core budget the search
// partitions across shard workers and kernel fan-outs (0 = GOMAXPROCS).
var coreBudget int

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

// runNLP searches the pure transformer space with a live weight-sharing
// super-network on synthetic sequence traffic.
func runNLP(chip h2onas.Chip, kind reward.Kind, latency float64,
	steps, shards, batch, warmup int, seed uint64, verbose bool, strategy string, ckpt checkpointing) {

	model := space.SmallViTConfig()
	vs := space.NewTransformerSpace(model)
	cfg := h2onas.OneShotSearchConfig(shards, steps, batch, warmup, seed)
	cfg.Workers = coreBudget
	cfg.Metrics = searchMetrics
	cfg.CheckpointDir = ckpt.dir
	cfg.CheckpointEvery = ckpt.every
	cfg.CheckpointRetain = ckpt.retain
	cfg.Resume = ckpt.resume
	strat, err := core.StrategyByName(strategy, vs.Space, steps*max(1, shards-1))
	if err != nil {
		fatalf("%v", err)
	}
	cfg.Strategy = strat
	if verbose {
		cfg.Progress = progress
	}
	fmt.Printf("searching transformer space (log10 size %.1f) on %s, %d shards × %d steps, %s strategy, %s reward, latency target %.2fx baseline\n",
		vs.Space.Log10Size(), chip.Name, shards, steps, strategy, kind, latency)
	res, err := h2onas.SearchTransformer(model, h2onas.DefaultSeqConfig(), chip, kind, latency, cfg)
	if err != nil {
		fatalf("search failed: %v", err)
	}
	if res.ResumedFrom > 0 {
		fmt.Printf("resumed from checkpoint at step %d\n", res.ResumedFrom)
	}
	fmt.Printf("\nfinal architecture: %s\n", vs.Space.Describe(res.Best))
	fmt.Printf("quality %.4f | step time %.0fµs\n", res.FinalQuality, res.BestPerf[0]*1e6)
}

// checkpointing carries the -checkpoint-*/-resume flags into the search
// config.
type checkpointing struct {
	dir    string
	every  int
	retain int
	resume bool
}

func (c checkpointing) enabled() bool { return c.dir != "" }

// distributed carries the -workers/-rpc-timeout/-result-out/-fail-shard
// flags into the search config.
type distributed struct {
	workers    []string
	rpcTimeout time.Duration
	resultOut  string
	failShard  string
}

func runDLRM(chip h2onas.Chip, kind reward.Kind, latency float64,
	steps, shards, batch, warmup int, seed uint64, verbose bool, strategy string, ckpt checkpointing, dist distributed) {

	if len(dist.workers) > 0 {
		// One remote worker per shard: the fleet defines the shard count.
		shards = len(dist.workers)
	}
	model := space.SmallDLRMConfig()
	// The banner, the strategy and the final report read the space;
	// SearchDLRM builds the searcher's own from the same model.
	sp := space.NewDLRMSpace(model).Space
	opts := h2onas.OneShotSearchConfig(shards, steps, batch, warmup, seed)
	opts.Workers = coreBudget
	opts.Metrics = searchMetrics
	strat, err := core.StrategyByName(strategy, sp, steps*max(1, shards-1))
	if err != nil {
		fatalf("%v", err)
	}
	opts.Strategy = strat
	if len(dist.workers) > 0 {
		tr, err := shardrpc.Dial(dist.workers, shardrpc.Options{
			Timeout: dist.rpcTimeout,
			Seed:    seed,
		})
		if err != nil {
			fatalf("distributed search: %v", err)
		}
		defer tr.Close()
		opts.Transport = tr
	}
	if dist.failShard != "" {
		fails, err := parseFailShards(dist.failShard)
		if err != nil {
			fatalf("parsing -fail-shard: %v", err)
		}
		for shard := range fails {
			if shard >= shards {
				usagef("-fail-shard %d: the run has shards 0..%d, so the fault would never fire", shard, shards-1)
			}
		}
		opts.ShardFault = func(step, shard, attempt int) error {
			if from, ok := fails[shard]; ok && step >= from {
				return fmt.Errorf("injected failure: shard %d down from step %d", shard, from)
			}
			return nil
		}
	}
	if ckpt.enabled() {
		opts.CheckpointDir = ckpt.dir
		opts.CheckpointEvery = ckpt.every
		opts.CheckpointRetain = ckpt.retain
		opts.Resume = ckpt.resume
	}
	if verbose {
		opts.Progress = progress
	}
	fmt.Printf("searching DLRM space (log10 size %.1f) on %s, %d shards × %d steps, %s strategy, %s reward, latency target %.2fx baseline\n",
		sp.Log10Size(), chip.Name, shards, steps, strategy, kind, latency)
	res, err := h2onas.SearchDLRM(model, h2onas.DLRMTraffic(model), chip, kind, latency, opts)
	if err != nil {
		fatalf("search failed: %v", err)
	}
	if res.ResumedFrom > 0 {
		fmt.Printf("resumed from checkpoint at step %d\n", res.ResumedFrom)
	}
	fmt.Printf("\nfinal architecture: %s\n", sp.Describe(res.Best))
	fmt.Printf("quality %.4f | train step %.0fµs | serving %.2fMB | examples consumed %d\n",
		res.FinalQuality, res.BestPerf[0]*1e6, res.BestPerf[1]/1e6, res.ExamplesSeen)
	if dist.resultOut != "" {
		if err := writeResult(res, dist.resultOut); err != nil {
			fatalf("writing result: %v", err)
		}
		fmt.Printf("result written to %s\n", dist.resultOut)
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

// writeResult persists the deterministic slice of the search result: the
// trajectory and outcome, but not wall-clock-dependent counters
// (ExamplesSeen varies with prefetch timing), so two runs that followed
// the same trajectory serialize byte-identically.
func writeResult(res *h2onas.SearchResult, path string) error {
	out := struct {
		Best           space.Assignment `json:"best"`
		BestPerf       []float64        `json:"best_perf"`
		FinalQuality   float64          `json:"final_quality"`
		ResumedFrom    int64            `json:"resumed_from"`
		ShardFirstDrop []int            `json:"shard_first_drop"`
		History        []core.StepInfo  `json:"history"`
	}{res.Best, res.BestPerf, res.FinalQuality, res.ResumedFrom, res.ShardFirstDrop, res.History}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func runVision(domain string, chip h2onas.Chip, kind reward.Kind, latency float64,
	steps, shards int, seed uint64, verbose bool, strategy string) {

	var sp *space.Space
	var simulate func(space.Assignment) hwsim.Result
	var accuracy func(space.Assignment) float64

	if domain == "cnn" {
		cs := space.NewCNNSpace(space.DefaultCNNConfig())
		sp = cs.Space
		simulate = func(a space.Assignment) hwsim.Result {
			return hwsim.Simulate(cs.Graph(cs.Decode(a)), chip, hwsim.Options{Mode: hwsim.Training, Chips: 128})
		}
		accuracy = func(a space.Assignment) float64 {
			ar := cs.Decode(a)
			g := cs.Graph(ar)
			return quality.Accuracy(quality.Traits{
				Params: g.Params, FLOPs: g.TotalFLOPs(),
				Resolution: ar.Resolution, BaseResolution: 224,
			}, quality.ImageNet1K)
		}
	} else {
		vs := space.NewHybridViTSpace(space.DefaultViTConfig())
		sp = vs.Space
		simulate = func(a space.Assignment) hwsim.Result {
			return hwsim.Simulate(vs.Graph(vs.Decode(a)), chip, hwsim.Options{Mode: hwsim.Training, Chips: 128})
		}
		accuracy = func(a space.Assignment) float64 {
			ar := vs.Decode(a)
			g := vs.Graph(ar)
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
	}

	base := make(space.Assignment, len(sp.Decisions)) // arbitrary reference
	baseRes := simulate(base)
	baseAcc := accuracy(base)
	rw, err := reward.New(kind,
		reward.Objective{Name: "train_step_time", Target: baseRes.StepTime * latency, Beta: -3},
	)
	if err != nil {
		fatalf("search failed: %v", err)
	}
	s := &core.AnalyticSearcher{
		Space:  sp,
		Reward: rw,
		Quality: func(a space.Assignment) float64 {
			return (accuracy(a) - baseAcc) * 2
		},
		Perf: func(a space.Assignment) []float64 {
			return []float64{simulate(a).StepTime}
		},
	}
	cfg := h2onas.SearchConfig{
		Shards: shards, Steps: steps,
		Workers:    coreBudget,
		Controller: controller.Config{LearningRate: 0.1, BaselineMomentum: 0.9, EntropyWeight: 2e-3},
		Seed:       seed,
		Metrics:    searchMetrics,
	}
	// Every analytic evaluation reaches the strategy: no sandwich shard.
	strat, err := core.StrategyByName(strategy, sp, steps*shards)
	if err != nil {
		fatalf("%v", err)
	}
	cfg.Strategy = strat
	if verbose {
		cfg.Progress = progress
	}
	fmt.Printf("searching %s space (log10 size %.1f) on %s, %d shards × %d steps, %s strategy\n",
		domain, sp.Log10Size(), chip.Name, shards, steps, strategy)
	res, err := s.Search(cfg)
	if err != nil {
		fatalf("search failed: %v", err)
	}
	fmt.Printf("\nfinal architecture: %s\n", sp.Describe(res.Best))
	fmt.Printf("accuracy %.2f%% | step time %.2fms (baseline %.2fms)\n",
		accuracy(res.Best), res.BestPerf[0]*1e3, baseRes.StepTime*1e3)
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
