package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/hwsim"
	"h2onas/internal/reward"
	"h2onas/internal/shardrpc"
	"h2onas/internal/space"
)

// searchSize is the shape of one search round.
type searchSize struct {
	shards, batch, warmup, steps int
}

func (z searchSize) total() int { return z.warmup + z.steps }

// dlrmEnv is what every DLRM search round shares: the SmallDLRM space, the
// TPUv4 objectives and the reward built against the baseline architecture.
type dlrmEnv struct {
	ds  *space.DLRMSpace
	obj *core.DLRMObjectives
	rw  *reward.Function
}

func newDLRMEnv() *dlrmEnv {
	ds := space.NewDLRMSpace(space.SmallDLRMConfig())
	obj := &core.DLRMObjectives{DS: ds, Chip: hwsim.TPUv4()}
	base := obj.BaselinePerf()
	rw := reward.MustNew(reward.ReLU,
		reward.Objective{Name: "train_step_time", Target: base[0], Beta: -2},
		reward.Objective{Name: "serving_memory", Target: base[1], Beta: -1},
	)
	return &dlrmEnv{ds: ds, obj: obj, rw: rw}
}

func (e *dlrmEnv) searcher(seed uint64) *core.Searcher {
	stream := datapipe.NewStream(datapipe.CTRConfig{
		NumTables: e.ds.Config.NumTables,
		Vocab:     e.ds.Config.BaseVocab,
		NumDense:  e.ds.Config.NumDense,
	}, seed)
	return &core.Searcher{DS: e.ds, Reward: e.rw, Perf: e.obj.Perf, Stream: stream}
}

func (e *dlrmEnv) config(z searchSize, seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Shards, cfg.BatchSize, cfg.WarmupSteps, cfg.Steps, cfg.Seed = z.shards, z.batch, z.warmup, z.steps, seed
	return cfg
}

// stepClock turns Progress callbacks into the round's start time and
// post-warm-up step gaps.
type stepClock struct {
	t0, last time.Time
	startMs  float64
	gapsMs   []float64
}

func newStepClock() *stepClock { return &stepClock{t0: time.Now()} }

func (c *stepClock) progress(core.StepInfo) {
	now := time.Now()
	if c.last.IsZero() {
		c.startMs = ms(now.Sub(c.t0))
	} else {
		c.gapsMs = append(c.gapsMs, ms(now.Sub(c.last)))
	}
	c.last = now
}

// record folds one finished search round into the window.
func (w *window) record(c *stepClock, z searchSize, history []core.StepInfo, firstDrop []int) {
	w.ops += z.total()
	w.attempted += z.total()
	w.opMs = append(w.opMs, c.gapsMs...)
	w.startMs = append(w.startMs, c.startMs)
	w.roundP50 = append(w.roundP50, median(c.gapsMs))
	w.digests = append(w.digests, trajectoryDigest(history))
	w.check(len(history) == z.steps, "history has %d steps, want %d", len(history), z.steps)
	w.check(historyFinite(history), "trajectory holds a NaN or Inf")
	for shard, at := range firstDrop {
		if at >= 0 {
			// Every step from the first drop on ran degraded.
			w.failed += z.total() - at
			w.problems = append(w.problems, fmt.Sprintf("shard %d dropped at step %d", shard, at))
		}
	}
}

// coreRound runs one core.Searcher round over transport (nil: in process).
// With a tracer the strategy, perf function and transport are wrapped, and
// layer names the transport's spans.
func coreRound(e *dlrmEnv, z searchSize, seed uint64, w *window, tr *tracer, r int,
	transport core.ShardTransport, layer string) (*searchTrace, *inprocShards, error) {

	s := e.searcher(seed)
	cfg := e.config(z, seed)
	cfg.Transport = transport
	clock := newStepClock()
	cfg.Progress = clock.progress
	var st *searchTrace
	var shards *inprocShards
	if tr != nil {
		var done func()
		st, done = traceSearch(tr, r, e.ds.Space, &cfg, &s.Perf)
		defer done()
		if transport == nil {
			shards = &inprocShards{t: tr}
			transport = shards
			defer shards.Close() // Search closes only transports it creates
		}
		cfg.Transport = &tracedTransport{inner: transport, st: st, layer: layer}
	}
	res, err := s.Search(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("search round %d: %w", r, err)
	}
	w.record(clock, z, res.History, res.ShardFirstDrop)
	return st, shards, nil
}

// dlrmRunner is the in-process DLRM search workload.
type dlrmRunner struct {
	o    runOpts
	env  *dlrmEnv
	size searchSize
	// Kept from the traced window for layers().
	traces []*searchTrace
	skewMs []float64
}

func dlrmSize(o runOpts) searchSize {
	if o.smoke {
		return searchSize{shards: 2, batch: 16, warmup: 2, steps: 4}
	}
	return searchSize{shards: 8, batch: 64, warmup: 40, steps: 160}
}

// warm runs a tenth-size search so pools, arenas and the kernel workers
// exist before the timed window: set-up is where lazy start-up cost lands.
func (e *dlrmEnv) warm(z searchSize, seed uint64, transport core.ShardTransport) error {
	z.warmup, z.steps = max(1, z.warmup/10), max(2, z.steps/10)
	cfg := e.config(z, seed)
	cfg.Transport = transport
	_, err := e.searcher(seed).Search(cfg)
	return err
}

func setupDLRM(o runOpts) (runner, error) {
	r := &dlrmRunner{o: o, env: newDLRMEnv(), size: dlrmSize(o)}
	return r, r.env.warm(r.size, o.seed, nil)
}

func (r *dlrmRunner) measure(budget time.Duration, tr *tracer) (*window, *window, error) {
	return rounds(budget, tr, func(i int, w *window, tr *tracer) error {
		st, shards, err := coreRound(r.env, r.size, mixSeed(r.o.seed, i), w, tr, i, nil, "core")
		if st != nil {
			r.traces = append(r.traces, st)
			r.skewMs = append(r.skewMs, shards.skewMs...)
		}
		return err
	})
}

func (r *dlrmRunner) layers(u, t *window, tr *tracer, budget time.Duration) (map[string]float64, error) {
	m := map[string]float64{}
	stepLedger(m, tr, r.traces, t)
	m["core.shard_skew_ms_p50"] = median(r.skewMs)
	m["supernet.forward_ms_p50"] = median(tr.durations("supernet.forward"))
	m["supernet.backward_ms_p50"] = median(tr.durations("supernet.backward"))
	p := newProber(budget, 26)
	p.tensorDLRM(m)
	p.nnDLRM(m, r.env, r.o.seed)
	p.supernetCold(m, r.env, r.o.seed)
	p.datapipeCTR(m, r.env, r.o.seed)
	return m, nil
}

func (r *dlrmRunner) close() {}

// stepLedger fills the core.* step metrics from the traced rounds' spans.
func stepLedger(m map[string]float64, tr *tracer, traces []*searchTrace, t *window) {
	steps := tr.durations("core.step")
	fan := tr.perParent("core.step", "core.fanout")
	sample := tr.perParent("core.step", "core.strategy_sample")
	update := tr.perParent("core.step", "core.strategy_update")
	m["core.fanout_ms_p50"] = median(fan)
	m["core.strategy_sample_us"] = median(sample) * 1e3
	m["core.strategy_update_us"] = median(update) * 1e3
	m["core.perf_eval_us"] = median(tr.durations("core.perf_eval")) * 1e3
	m["core.coordinator_other_ms_p50"] = median(tr.selfOf("core.step"))
	m["core.warmup_step_ms_p50"] = median(tr.durations("core.warmup_step"))
	m["core.step_ms_p99"] = percentile(steps, 99)
	var calls, cands int
	for _, st := range traces {
		calls += st.perfCalls
		cands += st.candidates
	}
	m["core.perf_cache_hit_ratio"] = 1 - ratio(float64(calls), float64(cands))
	m["tensor.matrix_allocs_per_step"] = ratio(float64(t.matrixAllocs), float64(t.ops))
}

// countingListener wraps a worker's listener so every byte that crosses
// the wire is counted, whichever side wrote it.
type countingListener struct {
	net.Listener
	rx, tx *atomic.Int64 // bytes the worker read / wrote
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, rx: l.rx, tx: l.tx}, nil
}

type countingConn struct {
	net.Conn
	rx, tx *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rx.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tx.Add(int64(n))
	return n, err
}

// rpcRunner is the DLRM search over a loopback shardrpc fleet.
type rpcRunner struct {
	o       runOpts
	env     *dlrmEnv
	size    searchSize
	workers []*shardrpc.Worker
	addrs   []string
	rx, tx  atomic.Int64 // bytes the workers read / wrote, ever

	// Kept from the traced run for layers().
	traces         []*searchTrace
	wireRx, wireTx int64 // bytes that crossed the wire during measure
}

func rpcSize(o runOpts) searchSize {
	if o.smoke {
		return searchSize{shards: 2, batch: 16, warmup: 2, steps: 4}
	}
	// 2 workers = nproc on the reference host: more only adds scheduler noise.
	return searchSize{shards: 2, batch: 64, warmup: 40, steps: 120}
}

func setupRPC(o runOpts) (runner, error) {
	r := &rpcRunner{o: o, env: newDLRMEnv(), size: rpcSize(o)}
	for i := 0; i < r.size.shards; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		w := shardrpc.NewWorker()
		r.workers = append(r.workers, w)
		r.addrs = append(r.addrs, lis.Addr().String())
		// Serve returns when close() drains the worker.
		go w.Serve(countingListener{Listener: lis, rx: &r.rx, tx: &r.tx})
	}
	tp, err := r.dial(o.seed)
	if err != nil {
		r.close()
		return nil, err
	}
	defer tp.Close()
	return r, r.env.warm(r.size, o.seed, tp)
}

func (r *rpcRunner) dial(seed uint64) (*shardrpc.Transport, error) {
	return shardrpc.Dial(r.addrs, shardrpc.Options{Seed: seed})
}

func (r *rpcRunner) measure(budget time.Duration, tr *tracer) (*window, *window, error) {
	rx0, tx0 := r.rx.Load(), r.tx.Load()
	defer func() { r.wireRx, r.wireTx = r.rx.Load()-rx0, r.tx.Load()-tx0 }()
	return rounds(budget, tr, func(i int, w *window, tr *tracer) error {
		seed := mixSeed(r.o.seed, i)
		tp, err := r.dial(seed)
		if err != nil {
			return err
		}
		defer tp.Close()
		st, _, err := coreRound(r.env, r.size, seed, w, tr, i, tp, "shardrpc")
		if st != nil {
			r.traces = append(r.traces, st)
		}
		return err
	})
}

func (r *rpcRunner) layers(u, t *window, tr *tracer, budget time.Duration) (map[string]float64, error) {
	m := map[string]float64{}
	// Every round of the window, bare or traced, moved the same bytes per
	// step: the counts are exact.
	steps := float64(u.ops + t.ops)
	m["shardrpc.wire_kb_rx_per_step"] = float64(r.wireRx) / 1024 / steps
	m["shardrpc.wire_kb_tx_per_step"] = float64(r.wireTx) / 1024 / steps

	// Round 0 again, in process under the wrapper transport: same seed, so
	// the same candidates and — the invariant — the same digest.
	ctl := newTracer()
	control := &window{}
	if _, _, err := coreRound(r.env, r.size, mixSeed(r.o.seed, 0), control, ctl, 0, nil, "core"); err != nil {
		return nil, err
	}
	t.check(control.digests[0] == t.digests[0], "rpc digest %016x differs from the in-process control's %016x", t.digests[0], control.digests[0])

	stepLedger(m, tr, r.traces, t)
	runstep := median(tr.perParent("core.step", "core.fanout"))
	m["shardrpc.runstep_ms_p50"] = runstep
	m["shardrpc.wire_overhead_ms_p50"] = runstep - median(ctl.perParent("core.step", "core.fanout"))
	m["shardrpc.pushweights_us_p50"] = median(tr.durations("shardrpc.pushweights")) * 1e3
	m["shardrpc.bind_ms"] = median(tr.durations("shardrpc.bind"))
	var dropped int
	for _, st := range r.traces {
		dropped += st.dropped
	}
	m["shardrpc.shards_dropped"] = float64(dropped)
	m["supernet.forward_ms_p50"] = median(ctl.durations("supernet.forward"))
	m["supernet.backward_ms_p50"] = median(ctl.durations("supernet.backward"))

	p := newProber(budget/2, 22)
	p.tensorDLRM(m)
	p.nnDLRM(m, r.env, r.o.seed)
	p.supernetCold(m, r.env, r.o.seed)
	p.datapipeCTR(m, r.env, r.o.seed)
	return m, nil
}

func (r *rpcRunner) close() {
	for _, w := range r.workers {
		w.Drain()
	}
	for _, w := range r.workers {
		w.Wait()
	}
	r.workers = nil
}
