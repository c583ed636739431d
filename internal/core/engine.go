package core

import (
	"fmt"
	"log"

	"h2onas/internal/checkpoint"
	"h2onas/internal/datapipe"
	"h2onas/internal/nn"
	"h2onas/internal/reward"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

// Batch is the engine's view of one batch of traffic: the phase marks
// that enforce the α-before-W ordering on it.
type Batch interface {
	UseForArch()
	UseForWeights()
}

// Network is the engine's view of a weight-sharing super-network N over
// batches of type B.
type Network[B, N any] interface {
	Loss(a space.Assignment, batch B) (float64, *tensor.Matrix)
	Backward(dLogits *tensor.Matrix)
	Quality(a space.Assignment, batch B) float64
	Params() []*nn.Param
	SetArena(a *tensor.Arena)
	SetWorkers(n int)
	// Replicate returns one shard's replica: it shares the network's
	// weight values and accumulates its own gradients. rng is the
	// replica's draw from the run's stream.
	Replicate(rng *tensor.RNG) N
}

// Source is the engine's view of a traffic stream: fresh batches, the
// O(1) fast-forward resume needs, and the served-example count.
type Source[B any] interface {
	NextBatch(n int) B
	Skip(nBatches int64, batchSize int)
	ExamplesServed() int64
}

// Engine is the unified single-step search of Section 4, written once
// over what a search space provides: its decisions, a reward, a
// performance function, a traffic stream of batches B and a super-network
// type N over those batches. core.Searcher (DLRM) and vitnet.Searcher
// (transformer) are thin adapters that fill one in; everything else —
// sandwich sampling, the strategy's sample/update, the prefetched batch
// draw, the shard fan-out with its retry/drop policy, the overlapped
// spine stage, candidates, telemetry, checkpoint/Resume/Stop and the
// final evaluation — is this one loop for every space.
type Engine[B Batch, N Network[B, N]] struct {
	Space  *space.Space
	Reward *reward.Function
	Perf   PerfFunc
	Stream Source[B]
	// New constructs the master super-network from its draw of the run's
	// seeded RNG. The engine draws the master's split first and then one
	// per replica (Network.Replicate), in shard order; the order in which
	// New draws from its rng is part of a space's trajectory.
	New func(rng *tensor.RNG) N
}

// Search runs the unified single-step massively parallel algorithm.
//
// When checkpointing is configured the complete search state — strategy
// state, shared weights, optimizer moments, RNG stream, stream position
// and step counter — is snapshotted atomically every CheckpointEvery
// steps, and a run restored from any snapshot (Resume) reproduces the
// uninterrupted run's final architecture and reward trajectory
// bit-for-bit. Shards that fail (via the ShardFault seam) are
// retried with bounded exponential backoff and, if they keep failing,
// dropped from that step's cross-shard reduce so the step degrades to
// the surviving shards instead of killing the search.
//
// Because sampling and batch draws stay on the coordinator and the
// spine's reduce is fixed-order, the trajectory is bit-identical across
// transports, core budgets and GOMAXPROCS for the same seed and per-step
// surviving shard set.
//
// On ErrStopped the partial Outcome is returned alongside the error.
func (e *Engine[B, N]) Search(cfg Config) (*Outcome, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Partition the core budget so shard-level and kernel-level
	// parallelism stop fighting: the shards run on at most budget.workers()
	// goroutines, each replica's intra-layer fan-out is bounded to its
	// per-shard share, while the master — which only computes in
	// coordinator-exclusive phases (final eval) — and the spine get the
	// full budget. Purely a performance decision; bits never depend on it.
	budget := newCoreBudget(cfg.Workers, cfg.Shards)
	rng := tensor.NewRNG(cfg.Seed)
	master := e.New(rng.Split())
	master.SetWorkers(budget.total)
	replicas := make([]N, cfg.Shards)
	for i := range replicas {
		replicas[i] = master.Replicate(rng.Split())
		replicas[i].SetWorkers(budget.perShard())
	}
	sandwichOn := !cfg.DisableSandwich
	if sandwichOn && cfg.Shards > budget.total {
		// The sandwich shard trains the maximal sub-network every step, so
		// it is the step's longest job. With more shards than cores the
		// sampled shards drain off the workers' queue before it is done and
		// their cores go idle; its kernels get the full budget to use them.
		replicas[0].SetWorkers(budget.total)
	}
	strat := strategyFor(&cfg, e.Space)
	opt := nn.NewAdam(cfg.WeightLR)
	spine := nn.NewSpine(master.Params(), opt, 10)
	spine.SetWorkers(budget.total)
	sm := newSearchMetrics(cfg.Metrics)

	// The transport seam: where the per-shard forward/backward executes.
	// The engine owns (and closes) the in-process pool; a caller-provided
	// transport is only bound here and closed by its owner.
	transport, pool, err := bindShards[B](&cfg, Binding[N]{Master: master, Replicas: replicas, Metrics: cfg.Metrics}, budget.workers())
	if err != nil {
		return nil, err
	}
	if pool != nil {
		// Closed through the concrete type: a Close called through the
		// generic interface keeps every reachable type's Close in the
		// binary (reflect.Value's too), shifting all code after it.
		defer pool.Close()
	}
	wantSync := transport.WantsWeightSync()
	spine.SetRecordTouched(wantSync)

	var mgr *checkpoint.Manager
	if cfg.CheckpointDir != "" {
		mgr = &checkpoint.Manager{
			Dir:     cfg.CheckpointDir,
			FS:      cfg.CheckpointFS,
			Clock:   cfg.Clock,
			Retain:  cfg.CheckpointRetain,
			Metrics: cfg.Metrics,
		}
	}

	out := &Outcome{ShardFirstDrop: make([]int, cfg.Shards)}
	for i := range out.ShardFirstDrop {
		out.ShardFirstDrop[i] = -1
	}
	st := &searchState{
		cfg: &cfg, space: e.Space, membership: transport.Membership(),
		rng: rng, strat: strat, params: master.Params(), opt: opt, out: out,
	}
	// Restore must precede pipeline construction: the producer starts
	// prefetching from the stream immediately, so the stream has to be
	// fast-forwarded to the checkpoint's consumed-batch frontier first.
	startStep, consumed, err := st.maybeRestore(mgr, e.Stream)
	if err != nil {
		return nil, err
	}
	sm.ResumedAt.Set(float64(startStep))

	// One prefetch stage: the pipeline's producer goroutine synthesizes
	// batches ahead of the step loop, so synthesis hides behind the
	// fan-out. Its buffer holds three steps of batches. The producer is the
	// stream's only client, so the data a batch carries is a pure function
	// of how many batches were drawn before it — independent of how far
	// ahead the producer has run. That makes `consumed`, the count of
	// batches the step loop has drawn, the whole stream position a
	// checkpoint needs: a resumed stream is fast-forwarded to it and
	// re-synthesizes, bit-identically, whatever sat in the buffer.
	pipe := datapipe.NewPipelineWithMetrics[B](e.Stream, cfg.BatchSize, cfg.Shards*3, cfg.Metrics)
	defer pipe.Close()

	// Each network gets its own arena so a steady-state step (and the
	// master's final evaluation passes) performs no matrix allocations:
	// intermediates are recycled at the top of every Forward. One arena
	// per network because arenas are single-goroutine. Drained on exit so
	// the pooled buffers return to the global pools.
	for _, n := range append([]N{master}, replicas...) {
		a := tensor.NewArena()
		n.SetArena(a)
		defer func() {
			n.SetArena(nil)
			a.Drain()
		}()
	}

	// Checkpoint encoding + I/O runs on a persister goroutine; Close is
	// deferred so every snapshot captured by the loop is durable before
	// Search returns.
	ckpt := newAsyncCheckpointer(mgr, sm)
	defer ckpt.Close()

	cands := newCandidateRing(cfg.MaxCandidates)

	assignments := make([]space.Assignment, cfg.Shards)
	qualities := make([]float64, cfg.Shards)
	batches := make([]B, cfg.Shards)
	outcomes := make([]ShardOutcome, cfg.Shards)
	alive := make([]bool, cfg.Shards)
	// liveParams collects the surviving replicas' param lists for the
	// cross-shard reduce, policySamples and rewards the step's policy
	// feedback; preallocated once so the steady-state step stays
	// allocation-flat on the coordinator too.
	liveParams := make([][]*nn.Param, 0, cfg.Shards)
	policySamples := make([]space.Assignment, 0, cfg.Shards)
	rewards := make([]float64, 0, cfg.Shards)

	// Stage-3 spine worker: the cross-shard gradient reduce and fused
	// clip+Adam weight step run here, overlapped with the coordinator's
	// stage 2 (perf eval, reward, strategy update) — the two stages touch
	// disjoint state (master weights + optimizer vs. policy, perf cache
	// and reward bookkeeping). The coordinator's send on spineWork
	// happens-before the worker's read of liveParams; the worker's send on
	// spineDone happens-before the coordinator's next read of the master
	// weights (the checkpoint, the next fan-out, and the final eval all
	// sit after the join).
	spineWork := make(chan struct{}, 1)
	spineDone := make(chan struct{}, 1)
	var spineNorm float64
	go func() {
		for range spineWork {
			weightsSpan := sm.WeightsTime.Start()
			spine.Reduce(liveParams)
			spineNorm = spine.ClipStep()
			weightsSpan.End()
			spineDone <- struct{}{}
		}
	}()
	defer close(spineWork)

	maxA := MaxAssignment(e.Space)
	for step := startStep; step < cfg.WarmupSteps+cfg.Steps; step++ {
		select {
		case <-cfg.Stop:
			// Cooperative cancellation at a step boundary: every piece of
			// state is settled (the previous step's spine join already
			// happened), so the snapshot taken here resumes bit-identically.
			// The deferred ckpt.Close drains the persister, making the
			// snapshot durable before Search returns.
			sm.StepsStopped.Inc()
			if mgr != nil {
				ckpt.enqueue(st.snapshot(step, consumed))
			}
			return out, ErrStopped
		default:
		}
		warmup := step < cfg.WarmupSteps
		stepSpan := sm.StepTime.Start()
		if warmup {
			sm.WarmupSteps.Inc()
			sm.WarmupRemaining.Set(float64(cfg.WarmupSteps - step))
		} else {
			sm.WarmupRemaining.Set(0)
		}
		sampleSpan := sm.SampleTime.Start()
		// Sampling and batch draw happen on the coordinator so runs are
		// reproducible; the heavy forward/backward fans out per shard.
		for i := range assignments {
			// Sandwich training: one shard (and half the warmup shards)
			// always trains the maximal sub-network so every shared weight
			// keeps receiving gradient. Without it the always-shared
			// upper-left corner of each weight matrix is the best-trained
			// region and the one-shot quality signal develops a strong bias
			// toward the thinnest candidates.
			if sandwichOn && ((i == 0 && cfg.Shards > 1) || (warmup && i%2 == 0)) {
				assignments[i] = maxA
			} else {
				assignments[i] = strat.Sample(rng, warmup)
			}
			batches[i] = pipe.Next()
		}
		consumed += int64(cfg.Shards)
		sampleSpan.End()

		fanoutSpan := sm.FanoutTime.Start()
		clear(outcomes)
		transport.RunStep(step, assignments, batches, outcomes)
		fanoutSpan.End()

		// Collect the shards that completed the step; dropped shards never
		// ran Backward, so their replica gradients are still zero and
		// excluding them keeps the surviving shards' gradient average
		// unbiased.
		liveParams = liveParams[:0]
		for i, o := range outcomes {
			alive[i] = o.Alive
			qualities[i] = o.Quality
			if o.Alive {
				liveParams = append(liveParams, replicas[i].Params())
			} else if out.ShardFirstDrop[i] < 0 {
				out.ShardFirstDrop[i] = step
				log.Printf("core: shard %d first dropped at step %d", i, step)
			}
		}
		if len(liveParams) == 0 {
			// Every shard failed: nothing to learn from this step.
			// Degrade by skipping the updates rather than killing the run.
			sm.StepsSkipped.Inc()
			stepSpan.End()
			st.maybeCheckpoint(ckpt, step, consumed)
			continue
		}

		// Stage 3 (cross-shard) starts first, on the spine worker: reduce
		// the surviving replicas' gradients and step W while the
		// coordinator runs stage 2 below on disjoint state. The join is
		// after stage 2, before anything reads the master weights again.
		spineWork <- struct{}{}

		// Stage 2: cross-shard policy update from (Q, T) → R. The
		// sandwich shard trains weights only; its fixed candidate would
		// bias the strategy, so it is excluded from the update.
		rewards = rewards[:0]
		if !warmup {
			policySpan := sm.PolicyTime.Start()
			first := 0
			if sandwichOn && cfg.Shards > 1 {
				first = 1
			}
			policySamples = policySamples[:0]
			for i := first; i < cfg.Shards; i++ {
				if !alive[i] {
					continue
				}
				perf := e.Perf(assignments[i])
				rw := e.Reward.Eval(qualities[i], perf)
				policySamples = append(policySamples, assignments[i])
				rewards = append(rewards, rw)
				cands.Add(Candidate{
					Step:       step - cfg.WarmupSteps,
					Assignment: append(space.Assignment(nil), assignments[i]...),
					Quality:    qualities[i],
					Perf:       perf,
					Reward:     rw,
				})
			}
			strat.Update(policySamples, rewards)
			sm.Candidates.Add(int64(len(policySamples)))
			policySpan.End()
		}

		// Join stage 3: from here on the master weights, the optimizer
		// moments and the pre-clip gradient norm are settled.
		<-spineDone
		sm.GradNorm.Observe(spineNorm)
		if wantSync {
			// Publish the step's weight change to remote shards. The spine
			// recorded exactly which params (and rows) ClipStep touched, so
			// the transport can ship a delta instead of the full state.
			if err := transport.PushWeights(spine.Touched()); err != nil {
				return nil, fmt.Errorf("core: publishing step %d weight update: %w", step, err)
			}
		}

		if !warmup {
			info := StepInfo{
				Step:       step - cfg.WarmupSteps,
				MeanReward: meanOf(rewards),
				MeanQ:      meanAlive(qualities, alive),
				Entropy:    strat.Entropy(),
				Confidence: strat.Confidence(),
			}
			out.History = append(out.History, info)
			sm.RecordStep(info)
			if cfg.Progress != nil {
				cfg.Progress(info)
			}
		}
		stepSpan.End()

		st.maybeCheckpoint(ckpt, step, consumed)
	}

	out.Best = strat.Best()
	out.BestPerf = e.Perf(out.Best)
	out.Candidates = cands.Items()
	// Final quality on 16 fresh batches: forward-only, so the extra
	// examples are cheap and cut evaluation noise. They are drawn through
	// the pipeline like every step's batches, which keeps FinalQuality a
	// function of the consumed-batch count alone and so bit-reproducible
	// across resumed runs.
	const finalBatches = 16
	var finalQ float64
	for j := 0; j < finalBatches; j++ {
		final := pipe.Next()
		final.UseForArch()
		finalQ += master.Quality(out.Best, final)
	}
	out.FinalQuality = finalQ / finalBatches
	out.ExamplesSeen = e.Stream.ExamplesServed()
	sm.Examples.Add(out.ExamplesSeen)
	return out, nil
}
