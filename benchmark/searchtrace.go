package main

import (
	"sync/atomic"
	"time"

	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/nn"
	"h2onas/internal/space"
	"h2onas/internal/supernet"
	"h2onas/internal/tensor"
)

// searchTrace turns the calls a search loop makes into its plug-in seams —
// Strategy, PerfFunc, ShardTransport, Progress — into the step ledger. All
// of its methods run on the coordinator goroutine; only shard spans are
// recorded elsewhere, and they go straight to the tracer.
//
// A step span runs from the step's first Sample to the next step's first
// Sample, so consecutive steps tile the search. A Sample opens a new step
// when a fan-out or a policy update has run since the previous step began
// (every loop in the repo samples first and does one of those two later),
// or when warm-up ends.
type searchTrace struct {
	t      *tracer
	search int // the core.search span
	phase  int // construct span, then final-eval span; -1 when closed
	step   int // current step span, -1 before the first
	stepNo int
	steps  int // policy steps of the run: the last Progress closes the last step

	marker        bool
	warm          bool // the current step is a warm-up step
	lastSampleEnd time.Time
	firstPerf     time.Time // first perf call since the last Sample

	perfCalls  int
	candidates int
	dropped    int
}

// traceSearch opens round i's span tree and installs the wrappers every
// search loop takes — strategy, perf function, progress — on the round's
// config. The caller adds a transport wrapper where the loop has that seam,
// runs the search, and calls the returned function when it is over.
func traceSearch(t *tracer, i int, sp *space.Space, cfg *core.Config, perf *core.PerfFunc) (*searchTrace, func()) {
	now := time.Now()
	round := t.begin("round", now, -1, i, 0, true)
	st := &searchTrace{t: t, step: -1, steps: cfg.Steps}
	st.search = t.begin("core.search", now, round, -1, 0, true)
	st.phase = t.begin("core.construct", now, st.search, -1, 0, false)
	cfg.Strategy = &tracedStrategy{Strategy: core.NewReinforce(sp, cfg.Controller), st: st}
	*perf = st.perf(*perf)
	progress := cfg.Progress
	cfg.Progress = func(info core.StepInfo) { progress(info); st.progress(info) }
	return st, func() { st.end(); t.finish(round, time.Now()) }
}

func (st *searchTrace) closePhase(now time.Time) {
	if st.phase >= 0 {
		st.t.finish(st.phase, now)
		st.phase = -1
	}
}

func (st *searchTrace) end() {
	now := time.Now()
	st.closePhase(now)
	if st.step >= 0 {
		st.t.finish(st.step, now)
	}
	st.t.finish(st.search, now)
}

// progress closes the last step and opens the final evaluation behind it.
func (st *searchTrace) progress(info core.StepInfo) {
	if info.Step != st.steps-1 || st.step < 0 {
		return
	}
	now := time.Now()
	st.t.finish(st.step, now)
	st.step = -1
	st.phase = st.t.begin("core.final_eval", now, st.search, -1, 0, false)
}

// parent is the span a coordinator-side call belongs to.
func (st *searchTrace) parent() int {
	if st.step >= 0 {
		return st.step
	}
	return st.search
}

type tracedStrategy struct {
	core.Strategy
	st *searchTrace
}

func (s *tracedStrategy) Sample(rng *tensor.RNG, warmup bool) space.Assignment {
	st := s.st
	t0 := time.Now()
	if st.phase >= 0 && st.step < 0 {
		st.closePhase(t0) // a loop without a transport ends construction here
	}
	if st.step < 0 || st.marker || warmup != st.warm {
		if st.step >= 0 {
			st.t.finish(st.step, t0)
		}
		name := "core.step"
		if warmup {
			name = "core.warmup_step"
		}
		st.step = st.t.begin(name, t0, st.search, st.stepNo, 0, true)
		st.stepNo++
		st.marker, st.warm = false, warmup
	}
	a := s.Strategy.Sample(rng, warmup)
	st.lastSampleEnd = time.Now()
	st.firstPerf = time.Time{}
	st.t.add("core.strategy_sample", t0, st.lastSampleEnd, st.step, st.stepNo-1, 0)
	return a
}

func (s *tracedStrategy) Update(samples []space.Assignment, rewards []float64) {
	st := s.st
	t0 := time.Now()
	if !st.marker {
		// No transport seam reported a fan-out (the transformer loop has
		// none): it ran between the last Sample and stage 2, whose first
		// call into a seam is a perf evaluation or this update.
		end := t0
		if !st.firstPerf.IsZero() {
			end = st.firstPerf
		}
		st.t.add("core.fanout", st.lastSampleEnd, end, st.step, st.stepNo-1, 0)
		st.marker = true
	}
	st.candidates += len(samples)
	s.Strategy.Update(samples, rewards)
	st.t.add("core.strategy_update", t0, time.Now(), st.step, st.stepNo-1, 0)
}

// perf wraps the searcher's PerfFunc. The loop memoizes behind it, so
// every call seen here is a cache miss.
func (st *searchTrace) perf(fn core.PerfFunc) core.PerfFunc {
	return func(a space.Assignment) []float64 {
		t0 := time.Now()
		if st.firstPerf.IsZero() {
			st.firstPerf = t0
		}
		out := fn(a)
		if st.step >= 0 {
			st.perfCalls++ // the final evaluation of the best is no candidate
		}
		st.t.add("core.perf_eval", t0, time.Now(), st.parent(), st.stepNo-1, 0)
		return out
	}
}

// tracedTransport wraps a ShardTransport with fan-out, bind and weight-push
// spans. A nil inner transport is replaced by inprocShards, the
// benchmark's own in-process transport with per-shard spans.
type tracedTransport struct {
	inner core.ShardTransport
	st    *searchTrace
	layer string // "core" in process, "shardrpc" over the wire
}

func (tt *tracedTransport) Bind(b core.ShardBinding) error {
	t0 := time.Now()
	tt.st.closePhase(t0)
	err := tt.inner.Bind(b)
	tt.st.t.add(tt.layer+".bind", t0, time.Now(), tt.st.search, -1, 0)
	return err
}

func (tt *tracedTransport) RunStep(step int, assignments []space.Assignment, batches []*datapipe.Batch, outcomes []core.ShardOutcome) {
	st := tt.st
	st.marker = true
	fan := st.t.begin("core.fanout", time.Now(), st.parent(), step, 0, false)
	if in, ok := tt.inner.(*inprocShards); ok {
		in.fan = fan
	}
	tt.inner.RunStep(step, assignments, batches, outcomes)
	st.t.finish(fan, time.Now())
	for _, o := range outcomes {
		if !o.Alive {
			st.dropped++
		}
	}
}

func (tt *tracedTransport) WantsWeightSync() bool { return tt.inner.WantsWeightSync() }

func (tt *tracedTransport) PushWeights(touched []nn.ParamTouch) error {
	t0 := time.Now()
	err := tt.inner.PushWeights(touched)
	tt.st.t.add(tt.layer+".pushweights", t0, time.Now(), tt.st.parent(), tt.st.stepNo-1, 0)
	return err
}

func (tt *tracedTransport) Membership() string { return tt.inner.Membership() }
func (tt *tracedTransport) Close() error       { return tt.inner.Close() }

// inprocShards is the benchmark's in-process ShardTransport: the same
// stage-1/stage-3 calls as the search's default transport — one long-lived
// worker per shard running Supernet.Loss then Backward on its bound
// replica — with a span around each. Equal digests between the untraced
// run (default transport) and the traced run (this one) show the copy
// computes the same bits.
type inprocShards struct {
	t        *tracer
	fan      int // the fan-out span of the step in flight
	replicas []*supernet.Supernet
	work     []chan int
	done     chan struct{}

	assignments []space.Assignment
	batches     []*datapipe.Batch
	outcomes    []core.ShardOutcome
	firstDone   atomic.Int64 // unix nanos of the step's first shard to finish
	skewMs      []float64    // last − first shard finish, per step
}

func (in *inprocShards) Bind(b core.ShardBinding) error {
	in.replicas = b.Replicas
	in.work = make([]chan int, len(b.Replicas))
	in.done = make(chan struct{}, len(b.Replicas))
	for i := range in.work {
		in.work[i] = make(chan int, 1)
		go in.worker(i)
	}
	return nil
}

func (in *inprocShards) worker(i int) {
	for step := range in.work[i] {
		b := in.batches[i]
		t0 := time.Now()
		b.UseForArch()
		loss, dout := in.replicas[i].Loss(in.assignments[i], b)
		t1 := time.Now()
		b.UseForWeights()
		in.replicas[i].Backward(dout)
		t2 := time.Now()
		in.outcomes[i] = core.ShardOutcome{Alive: true, Quality: core.QualityFromLoss(loss)}
		in.t.add("supernet.forward", t0, t1, in.fan, step, 1+i)
		in.t.add("supernet.backward", t1, t2, in.fan, step, 1+i)
		in.firstDone.CompareAndSwap(0, t2.UnixNano())
		in.done <- struct{}{}
	}
}

func (in *inprocShards) RunStep(step int, assignments []space.Assignment, batches []*datapipe.Batch, outcomes []core.ShardOutcome) {
	in.assignments, in.batches, in.outcomes = assignments, batches, outcomes
	in.firstDone.Store(0)
	for i := range in.work {
		in.work[i] <- step
	}
	for range in.work {
		<-in.done
	}
	in.skewMs = append(in.skewMs, float64(time.Now().UnixNano()-in.firstDone.Load())/1e6)
	in.assignments, in.batches, in.outcomes = nil, nil, nil
}

func (in *inprocShards) WantsWeightSync() bool             { return false }
func (in *inprocShards) PushWeights([]nn.ParamTouch) error { return nil }
func (in *inprocShards) Membership() string                { return "inproc" }

func (in *inprocShards) Close() error {
	for _, w := range in.work {
		close(w)
	}
	in.work = nil
	return nil
}
