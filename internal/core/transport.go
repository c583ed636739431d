package core

import (
	"time"

	"h2onas/internal/checkpoint"
	"h2onas/internal/datapipe"
	"h2onas/internal/metrics"
	"h2onas/internal/nn"
	"h2onas/internal/space"
	"h2onas/internal/supernet"
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

// ShardBinding hands a transport the run state it executes steps against.
// Search builds it once, after constructing the master super-network and
// its per-shard replicas and before restoring any checkpoint.
type ShardBinding struct {
	// Master is the coordinator's super-network: the source of truth for
	// shared weights. Remote transports read it to synchronize workers;
	// the in-process pool shares its storage through the replicas.
	Master *supernet.Supernet
	// Replicas are the per-shard gradient sinks, one per shard, in shard
	// order. The in-process pool runs Forward/Backward on them
	// directly; a remote transport copies collected gradients into them
	// so the spine reduce consumes identical state either way.
	Replicas []*supernet.Supernet
	// Metrics is the run's registry (nil-safe); transports resolve their
	// own instruments from it.
	Metrics *metrics.Registry
}

// ShardTransport is the seam between the coordinator's step loop and
// wherever the per-shard forward/backward work executes: the in-process
// worker pool (the default) or a fleet of remote workers over TCP
// (internal/shardrpc).
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
// ShardTransport is typed to the DLRM super-network and batch, so a
// caller-provided transport serves core.Searcher only; every search
// space shares the in-process pool behind the same step engine.
//
// A transport degrades rather than fails: a straggling or dead shard is
// reported !Alive for the step and the coordinator reduces over the
// survivors, consistent with Config.ShardFault semantics.
type ShardTransport interface {
	// Bind attaches the transport to a run. It is called once per Search,
	// before the first RunStep; remote transports perform their worker
	// handshakes here and must reject a shard count that does not match
	// their fleet.
	Bind(b ShardBinding) error
	// RunStep executes step on every shard — stage 1 (forward, quality)
	// and stage 3's per-shard half (backward, gradient accumulation) —
	// and fills outcomes[i] for shard i. It blocks until every shard
	// completed or was dropped. assignments[i] and batches[i] are valid
	// for the duration of the call only.
	RunStep(step int, assignments []space.Assignment, batches []*datapipe.Batch, outcomes []ShardOutcome)
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
	// Close releases the transport's resources. Search never calls it: a
	// provided transport is closed by its owner.
	Close() error
}

// shardRunner is the part of a ShardTransport the step engine calls,
// generic over the batch type so the same loop drives every search
// space. ShardTransport satisfies it for *datapipe.Batch; shardPool
// implements it for any space.
type shardRunner[B any] interface {
	RunStep(step int, assignments []space.Assignment, batches []B, outcomes []ShardOutcome)
	WantsWeightSync() bool
	PushWeights(touched []nn.ParamTouch) error
	Membership() string
}

// A failed in-process shard is retried shardRetries times within a step,
// waiting shardBackoff doubled per attempt, before it is dropped from
// that step's cross-shard reduce.
const (
	shardRetries = 2
	shardBackoff = time.Millisecond
)

// shardPool is the in-process execution mode behind the seam: a fixed set
// of long-lived worker goroutines — one per shard, capped at the core
// budget, since more CPU-bound workers than cores would only time-slice —
// that take a step's shards off one queue in shard order, so the sandwich
// shard (shard 0, the maximal sub-network and the step's longest job)
// starts first. Replicas share weight storage with the master, so there
// is no weight synchronization at all. The coordinator's send on work
// happens-before the worker's read of that step's assignment/batch, and
// the worker's send on stepDone happens-before the coordinator's read of
// outcomes — the same memory-ordering guarantees a per-step WaitGroup
// would provide.
type shardPool[B Batch, N Network[B]] struct {
	// The Config knobs the pool honors.
	fault func(step, shard, attempt int) error
	clock checkpoint.Clock
	sm    searchMetrics

	replicas []N
	work     chan int // shard indices of the step in flight
	stepDone chan struct{}

	// Per-step dispatch state: published before the work sends, read by
	// the workers, settled before RunStep returns.
	step        int
	assignments []space.Assignment
	batches     []B
	outcomes    []ShardOutcome
}

// newShardPool starts workers goroutines to run the replicas' steps under
// cfg's fault policy. Close stops them.
func newShardPool[B Batch, N Network[B]](cfg *Config, sm searchMetrics, replicas []N, workers int) *shardPool[B, N] {
	p := &shardPool[B, N]{
		fault:    cfg.ShardFault,
		clock:    cfg.Clock,
		sm:       sm,
		replicas: replicas,
		work:     make(chan int, len(replicas)),
		stepDone: make(chan struct{}, len(replicas)),
	}
	if p.clock == nil {
		p.clock = checkpoint.RealClock()
	}
	for range workers {
		go p.worker()
	}
	return p
}

// worker is one long-lived execution loop. For each shard i it takes off
// the queue: retry the shard-fault seam with bounded exponential backoff,
// then run stage 1 (forward, quality) and stage 3's per-shard half
// (backward) on the shard's replica.
func (p *shardPool[B, N]) worker() {
	for i := range p.work {
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
			b := p.batches[i]
			// Stage 1: fresh data is consumed by architecture learning
			// first…
			b.UseForArch()
			loss, dout := p.replicas[i].Loss(p.assignments[i], b)
			out.Quality = QualityFromLoss(loss)
			// Stage 3: …and only then by weight training, on the same
			// batch and candidate.
			b.UseForWeights()
			p.replicas[i].Backward(dout)
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
		p.work <- i
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

// Close stops the workers. The engine calls it once, after the last
// RunStep returned.
func (p *shardPool[B, N]) Close() {
	close(p.work)
}
