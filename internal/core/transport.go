package core

import (
	"fmt"
	"sync"
	"time"

	"h2onas/internal/checkpoint"
	"h2onas/internal/datapipe"
	"h2onas/internal/metrics"
	"h2onas/internal/nn"
	"h2onas/internal/space"
	"h2onas/internal/supernet"
	"h2onas/internal/tensor"
)

// ShardOutcome reports one shard's completion (or loss) of a search step.
type ShardOutcome struct {
	// Alive is true when the shard completed the step and its replica's
	// gradients are valid for the cross-shard reduce. A false outcome
	// means the shard was dropped from this step: its gradients are
	// untouched (exactly zero by the Dirty invariant) and it contributes
	// nothing to the reduce or the policy update.
	Alive bool
	// Quality is the shard's one-shot quality signal Q(α) = 1 − loss/ln2.
	// Meaningful only when Alive.
	Quality float64
}

// Binding hands a transport the run state it executes steps against: the
// super-networks of type N the engine built for this run. The engine
// builds it once, after constructing the master and its per-shard
// replicas and before restoring any checkpoint, and binds whichever
// transport the run uses — its own in-process pool or Config.Transport —
// to the same value.
type Binding[N any] struct {
	// Master is the coordinator's super-network: the source of truth for
	// shared weights. Remote transports read it to synchronize workers;
	// the in-process pool shares its storage through the replicas.
	Master N
	// Replicas are the per-shard gradient sinks, one per shard, in shard
	// order. The in-process pool runs the shard step on them directly; a
	// remote transport copies collected gradients into them so the spine
	// reduce consumes identical state either way.
	Replicas []N
	// Metrics is the run's registry (nil-safe); transports resolve their
	// own instruments from it.
	Metrics *metrics.Registry
}

// Transport is the seam between the engine's step loop and wherever the
// per-shard forward/backward work on batches B and super-networks N
// executes: the in-process worker pool (the default) or a fleet of
// remote workers over TCP (internal/shardrpc, which serves the DLRM
// instance, ShardTransport).
//
// The determinism contract makes multi-node runs bit-identical to
// single-node: candidate sampling and batch draws happen on the
// coordinator (so the RNG stream and traffic stream are consumed
// identically under every transport), and a shard given the same weights,
// assignment and batch must produce bit-identical quality and gradients,
// delivered into Replicas[i] with identical Dirty/row-order marks. The
// spine's fixed-order reduce then makes the trajectory a pure function of
// (seed, config, per-step surviving shard set).
//
// A transport degrades rather than fails: a straggling or dead shard is
// reported !Alive for the step and the coordinator reduces over the
// survivors, consistent with Config.ShardFault semantics.
type Transport[B, N any] interface {
	// Bind attaches the transport to a run. It is called once per Search,
	// before the first RunStep; remote transports perform their worker
	// handshakes here and must reject a shard count that does not match
	// their fleet.
	Bind(b Binding[N]) error
	// RunStep executes step on every shard — ShardStep on the shard's
	// replica — and fills outcomes[i] for shard i. It blocks until every
	// shard completed or was dropped. assignments[i] and batches[i] are
	// valid for the duration of the call only.
	RunStep(step int, assignments []space.Assignment, batches []B, outcomes []ShardOutcome)
	// WantsWeightSync reports whether the transport needs PushWeights
	// after each weight update. The in-process pool shares weight
	// storage and returns false, which also keeps the spine from
	// recording touched params.
	WantsWeightSync() bool
	// PushWeights publishes the master's post-step weight state to the
	// shards; touched lists exactly the params (and rows) the step
	// modified, in param-index order. Called after every weight update
	// when WantsWeightSync; implementations may defer the actual network
	// send to the next RunStep. touched is the spine's record and, like
	// the master weights, stays unchanged until the next weight update,
	// which starts only after the next RunStep has returned.
	PushWeights(touched []nn.ParamTouch) error
	// Membership identifies the fleet for the checkpoint fingerprint:
	// resuming a run under a different transport or a silently changed
	// worker set is refused. Valid after Bind.
	Membership() string
	// Close releases the transport's resources. The engine closes only
	// the pool it owns: a Config.Transport is closed by its owner.
	Close() error
}

// ShardBinding and ShardTransport are the DLRM instances of the seam, the
// ones Config.Transport carries: a caller-provided transport serves the
// DLRM super-network, and the engine refuses it for any other space.
type (
	ShardBinding   = Binding[*supernet.Supernet]
	ShardTransport = Transport[*datapipe.Batch, *supernet.Supernet]
)

// ShardStep runs one shard's part of a search step on net: stage 1
// (forward on the fresh batch, for architecture learning) and then stage
// 3's per-shard half (backward on the same batch and candidate, for weight
// training). It returns the batch loss. The order is the correctness
// invariant of the single-step search (Section 4.1): α learns on data W
// has not trained on yet. The in-process pool and the remote shard worker
// both run it.
func ShardStep[B Batch, N Network[B, N]](net N, a space.Assignment, b B) float64 {
	b.UseForArch()
	loss, dout := net.Loss(a, b)
	b.UseForWeights()
	net.Backward(dout)
	return loss
}

// bindShards binds the run's transport to b and returns it: t, the
// caller's transport, or when t is nil a new in-process pool of up to
// workers goroutines, also returned as pool: the caller owns that one
// and closes it after the last step.
func bindShards[B Batch, N Network[B, N]](cfg *Config, t Transport[B, N], b Binding[N], workers int) (_ Transport[B, N], pool *shardPool[B, N], err error) {
	if t == nil {
		pool = newShardPool[B, N](cfg, workers)
		t = pool
	}
	if err := t.Bind(b); err != nil {
		return nil, nil, fmt.Errorf("core: binding shard transport: %w", err)
	}
	return t, pool, nil
}

// A failed in-process shard is retried shardRetries times within a step,
// waiting shardBackoff doubled per attempt, before it is dropped from
// that step's cross-shard reduce.
const (
	shardRetries = 2
	shardBackoff = time.Millisecond
)

// shardPool is the in-process Transport: a fixed set of long-lived
// worker goroutines — one per shard, capped at the core budget, since
// more CPU-bound workers than cores would only time-slice. With fewer
// workers than shards they take a step's shards off one queue in shard
// order, so the sandwich shard (shard 0, the maximal sub-network and the
// step's longest job) starts first and the sampled shards balance around
// it; with a worker per shard, worker i runs shard i. Replicas share
// weight storage with the master, so there is no weight synchronization
// at all. Each worker owns one activation arena and binds it to the
// replica it steps next: a replica's intermediates are dead once
// ShardStep returns (its gradients live in Param.Grad), so the arenas
// number the workers, not the shards. The coordinator's send on work
// happens-before the worker's read of that step's assignment/batch, and
// the worker's send on stepDone happens-before the coordinator's read of
// outcomes — the same memory-ordering guarantees a per-step WaitGroup
// would provide.
type shardPool[B Batch, N Network[B, N]] struct {
	// The Config knobs the pool honors.
	fault   func(step, shard, attempt int) error
	clock   checkpoint.Clock
	workers int

	// Bound state: the replicas and the run's instruments.
	sm       searchMetrics
	replicas []N
	work     []chan int // shard indices of the step in flight: one shared queue, or one per worker
	stepDone chan struct{}
	exited   sync.WaitGroup // the workers, until each has drained its arena

	// Per-step dispatch state: published before the work sends, read by
	// the workers, settled before RunStep returns.
	step        int
	assignments []space.Assignment
	batches     []B
	outcomes    []ShardOutcome
}

// newShardPool returns a pool that runs shards on up to workers
// goroutines under cfg's fault policy. Bind starts them; Close stops them.
func newShardPool[B Batch, N Network[B, N]](cfg *Config, workers int) *shardPool[B, N] {
	p := &shardPool[B, N]{fault: cfg.ShardFault, clock: cfg.Clock, workers: workers}
	if p.clock == nil {
		p.clock = checkpoint.RealClock()
	}
	return p
}

// Bind takes the replicas and the registry and starts the workers.
func (p *shardPool[B, N]) Bind(b Binding[N]) error {
	p.sm = newSearchMetrics(b.Metrics)
	p.replicas = b.Replicas
	// With a worker per shard, shard i always runs on worker i, so only
	// one arena holds the sandwich shard's maximal pass. With fewer
	// workers than shards they share one queue.
	p.work = make([]chan int, 1)
	if p.workers == len(b.Replicas) {
		p.work = make([]chan int, p.workers)
	}
	for k := range p.work {
		p.work[k] = make(chan int, len(b.Replicas))
	}
	p.stepDone = make(chan struct{}, len(b.Replicas))
	p.exited.Add(p.workers)
	for k := range p.workers {
		go p.worker(p.work[k%len(p.work)])
	}
	return nil
}

// worker is one long-lived execution loop. For each shard i it takes off
// its queue: retry the shard-fault seam with bounded exponential backoff,
// then bind its arena to the shard's replica and run ShardStep on it.
// When the pool closes it drains the arena back to the global pools.
func (p *shardPool[B, N]) worker(work <-chan int) {
	defer p.exited.Done()
	arena := tensor.NewArena()
	defer arena.Drain()
	for i := range work {
		step := p.step
		shardSpan := p.sm.ShardTime.Start()
		var out ShardOutcome
		for attempt := 0; ; attempt++ {
			if p.fault != nil {
				if err := p.fault(step, i, attempt); err != nil {
					p.sm.ShardFailures.Inc()
					if attempt >= shardRetries {
						// Permanent for this step: drop the shard from the
						// cross-shard reduce.
						p.sm.ShardsDropped.Inc()
						break
					}
					p.sm.ShardRetries.Inc()
					p.clock.Sleep(shardBackoff << attempt)
					continue
				}
			}
			p.replicas[i].SetArena(arena)
			out.Quality = QualityFromLoss(ShardStep(p.replicas[i], p.assignments[i], p.batches[i]))
			out.Alive = true
			break
		}
		p.outcomes[i] = out
		shardSpan.End()
		p.stepDone <- struct{}{}
	}
}

func (p *shardPool[B, N]) RunStep(step int, assignments []space.Assignment, batches []B, outcomes []ShardOutcome) {
	p.step, p.assignments, p.batches, p.outcomes = step, assignments, batches, outcomes
	for i := range p.replicas {
		p.work[i%len(p.work)] <- i
	}
	for range p.replicas {
		<-p.stepDone
	}
	p.assignments, p.batches, p.outcomes = nil, nil, nil
}

func (p *shardPool[B, N]) WantsWeightSync() bool { return false }

// PushWeights is a no-op: replicas share the master's weight storage.
func (p *shardPool[B, N]) PushWeights([]nn.ParamTouch) error { return nil }

func (p *shardPool[B, N]) Membership() string { return "inproc" }

// Close stops the workers and returns once each has drained its arena.
// The engine calls it once, after the last RunStep returned.
func (p *shardPool[B, N]) Close() error {
	for _, w := range p.work {
		close(w)
	}
	p.exited.Wait()
	for _, r := range p.replicas {
		r.SetArena(nil)
	}
	return nil
}
