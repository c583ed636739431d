package core

import (
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"h2onas/internal/datapipe"
	"h2onas/internal/metrics"
	"h2onas/internal/nn"
	"h2onas/internal/reward"
	"h2onas/internal/space"
	"h2onas/internal/supernet"
	"h2onas/internal/tensor"
)

type gaugeBatch struct{}

func (gaugeBatch) UseForArch()    {}
func (gaugeBatch) UseForWeights() {}

// gaugeNet is a Network that only records how many of its kind are
// inside Loss at once, and the arenas it is bound to.
type gaugeNet struct {
	running, peak *atomic.Int32
	backward      int
	arena         *tensor.Arena
	arenas        []*tensor.Arena // every arena a Backward ran under
}

func (n *gaugeNet) Loss(space.Assignment, gaugeBatch) (float64, *tensor.Matrix) {
	now := n.running.Add(1)
	for {
		p := n.peak.Load()
		if now <= p || n.peak.CompareAndSwap(p, now) {
			break
		}
	}
	time.Sleep(time.Millisecond) // widen the overlap window; the bound below holds without it
	n.running.Add(-1)
	return 0, nil
}
func (n *gaugeNet) Backward(*tensor.Matrix) {
	n.backward++
	n.arenas = append(n.arenas, n.arena)
}
func (n *gaugeNet) Quality(space.Assignment, gaugeBatch) float64 { return 0 }
func (n *gaugeNet) Params() []*nn.Param                          { return nil }
func (n *gaugeNet) SetArena(a *tensor.Arena)                     { n.arena = a }
func (n *gaugeNet) SetWorkers(int)                               {}
func (n *gaugeNet) Replicate(*tensor.RNG) *gaugeNet {
	return &gaugeNet{running: n.running, peak: n.peak}
}

// TestShardPoolRunsAtMostWorkersShardsAtOnce pins the pool's core-budget
// contract: every shard of every step runs exactly once, and never more
// than `workers` of them at the same time.
func TestShardPoolRunsAtMostWorkersShardsAtOnce(t *testing.T) {
	const shards, workers, steps = 5, 2, 4
	var running, peak atomic.Int32
	replicas := make([]*gaugeNet, shards)
	for i := range replicas {
		replicas[i] = &gaugeNet{running: &running, peak: &peak}
	}
	cfg := Config{}
	pool := newShardPool[gaugeBatch, *gaugeNet](&cfg, workers)
	if err := pool.Bind(Binding[*gaugeNet]{Replicas: replicas}); err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	assignments := make([]space.Assignment, shards)
	batches := make([]gaugeBatch, shards)
	outcomes := make([]ShardOutcome, shards)
	for step := 0; step < steps; step++ {
		clear(outcomes)
		pool.RunStep(step, assignments, batches, outcomes)
		for i, o := range outcomes {
			if !o.Alive || o.Quality != 1 {
				t.Fatalf("step %d shard %d: outcome %+v, want alive with quality 1", step, i, o)
			}
		}
	}
	for i, r := range replicas {
		if r.backward != steps {
			t.Errorf("shard %d ran Backward %d times, want %d", i, r.backward, steps)
		}
	}
	if got := peak.Load(); got > workers {
		t.Errorf("%d shards ran at once, want at most %d", got, workers)
	}
}

// TestShardPoolArenasFollowWorkers: every shard step runs under one of
// the pool workers' arenas — never more arenas than workers — with a
// worker per shard each shard keeps one arena, and Close unbinds them.
func TestShardPoolArenasFollowWorkers(t *testing.T) {
	for _, c := range []struct{ shards, workers int }{{5, 2}, {3, 3}} {
		var running, peak atomic.Int32
		replicas := make([]*gaugeNet, c.shards)
		for i := range replicas {
			replicas[i] = &gaugeNet{running: &running, peak: &peak}
		}
		pool := newShardPool[gaugeBatch, *gaugeNet](&Config{}, c.workers)
		if err := pool.Bind(Binding[*gaugeNet]{Replicas: replicas}); err != nil {
			t.Fatal(err)
		}
		outcomes := make([]ShardOutcome, c.shards)
		for step := range 6 {
			pool.RunStep(step, make([]space.Assignment, c.shards), make([]gaugeBatch, c.shards), outcomes)
		}
		pool.Close()
		all := map[*tensor.Arena]bool{}
		for i, r := range replicas {
			own := map[*tensor.Arena]bool{}
			for _, a := range r.arenas {
				if a == nil {
					t.Fatalf("%d shards on %d workers: shard %d stepped without an arena", c.shards, c.workers, i)
				}
				own[a], all[a] = true, true
			}
			if c.shards == c.workers && len(own) != 1 {
				t.Errorf("%d shards on %d workers: shard %d ran under %d arenas, want its worker's one", c.shards, c.workers, i, len(own))
			}
			if r.arena != nil {
				t.Errorf("%d shards on %d workers: shard %d still bound to an arena after Close", c.shards, c.workers, i)
			}
		}
		if len(all) > c.workers {
			t.Errorf("%d shards on %d workers ran under %d arenas, want at most one per worker", c.shards, c.workers, len(all))
		}
	}
}

// orderNet and orderBatch log the shard step's calls, in order.
type orderBatch struct{ log *[]string }

func (b orderBatch) UseForArch()    { *b.log = append(*b.log, "arch") }
func (b orderBatch) UseForWeights() { *b.log = append(*b.log, "weights") }

type orderNet struct{ log *[]string }

func (n *orderNet) Loss(space.Assignment, orderBatch) (float64, *tensor.Matrix) {
	*n.log = append(*n.log, "loss")
	return 0.25, nil
}
func (n *orderNet) Backward(*tensor.Matrix)                      { *n.log = append(*n.log, "backward") }
func (n *orderNet) Quality(space.Assignment, orderBatch) float64 { return 0 }
func (n *orderNet) Params() []*nn.Param                          { return nil }
func (n *orderNet) SetArena(*tensor.Arena)                       {}
func (n *orderNet) SetWorkers(int)                               {}
func (n *orderNet) Replicate(*tensor.RNG) *orderNet              { return &orderNet{log: n.log} }

// TestShardStepMarksArchBeforeWeights pins the α-before-W order of the
// one shard step the pool and the remote worker share: the batch is
// marked for architecture learning before the forward pass and for
// weight training only after it, before the backward pass.
func TestShardStepMarksArchBeforeWeights(t *testing.T) {
	var log []string
	if loss := ShardStep(&orderNet{log: &log}, nil, orderBatch{log: &log}); loss != 0.25 {
		t.Fatalf("ShardStep returned loss %v, want the network's 0.25", loss)
	}
	if want := []string{"arch", "loss", "weights", "backward"}; !slices.Equal(log, want) {
		t.Fatalf("shard step ran %v, want %v", log, want)
	}
}

// bindRecorder is a caller's transport that records the Binding it is
// handed and runs the steps on an in-process pool.
type bindRecorder struct {
	*shardPool[*datapipe.Batch, *supernet.Supernet]
	got ShardBinding
}

func (r *bindRecorder) Bind(b ShardBinding) error {
	r.got = b
	return r.shardPool.Bind(b)
}

// TestPoolIsBoundLikeACallerTransport: the engine hands its own pool the
// Binding it hands a Config.Transport — the master, the replicas in shard
// order and the run's registry — and a search whose Config.Transport is
// an in-process pool follows the default search bit for bit.
func TestPoolIsBoundLikeACallerTransport(t *testing.T) {
	cfg := fastConfig(5)
	cfg.Steps, cfg.WarmupSteps = 4, 2
	cfg.Metrics = metrics.New()
	s, _ := testSearcher(t, reward.ReLU, 1.0, 5)
	master := supernet.New(s.DS, tensor.NewRNG(1))
	b := ShardBinding{Master: master, Metrics: cfg.Metrics}
	for range cfg.Shards {
		b.Replicas = append(b.Replicas, master.Replicate(tensor.NewRNG(2)))
	}
	sameBinding := func(who string, got ShardBinding) {
		t.Helper()
		if got.Master != b.Master || !slices.Equal(got.Replicas, b.Replicas) || got.Metrics != b.Metrics {
			t.Fatalf("%s was bound to %+v, want %+v", who, got, b)
		}
	}

	own, pool, err := bindShards[*datapipe.Batch, *supernet.Supernet](&cfg, nil, b, 2)
	if err != nil || pool == nil || own != Transport[*datapipe.Batch, *supernet.Supernet](pool) {
		t.Fatalf("default transport: %T (pool %p), err %v; want the engine's own pool", own, pool, err)
	}
	pool.Close()
	// The pool keeps what it uses of the binding: the replicas and the
	// instruments it resolves from the registry.
	if !slices.Equal(pool.replicas, b.Replicas) || pool.sm.ShardTime != cfg.Metrics.Histogram("search_shard_step_seconds") {
		t.Fatal("the engine's pool did not take the binding's replicas, in shard order, and registry")
	}

	rec := &bindRecorder{shardPool: newShardPool[*datapipe.Batch, *supernet.Supernet](&cfg, 2)}
	cfg.Transport = rec
	got, pool, err := bindShards[*datapipe.Batch](&cfg, rec, b, 2)
	if err != nil || pool != nil || got != Transport[*datapipe.Batch, *supernet.Supernet](rec) {
		t.Fatalf("caller transport: %T (engine pool %p), err %v; want it bound and left to its owner", got, pool, err)
	}
	rec.Close()
	sameBinding("the caller's transport", rec.got)

	// End to end: the engine's binding, consumed by a pool behind the
	// caller seam, runs the default search's trajectory.
	rec = &bindRecorder{shardPool: newShardPool[*datapipe.Batch, *supernet.Supernet](&cfg, 2)}
	cfg.Transport = rec
	viaCaller, err := s.Search(cfg)
	rec.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rec.got.Replicas); n != cfg.Shards || rec.got.Metrics != cfg.Metrics {
		t.Fatalf("search bound %d replicas and registry %p, want %d and %p", n, rec.got.Metrics, cfg.Shards, cfg.Metrics)
	}
	for i, r := range rec.got.Replicas {
		if r == rec.got.Master || r.Params()[0].Value != rec.got.Master.Params()[0].Value {
			t.Fatalf("replica %d is not a replica of the bound master", i)
		}
	}
	cfg.Transport = nil
	s2, _ := testSearcher(t, reward.ReLU, 1.0, 5)
	viaEngine, err := s2.Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaCaller.History, viaEngine.History) || !slices.Equal(viaCaller.Best, viaEngine.Best) ||
		math.Float64bits(viaCaller.FinalQuality) != math.Float64bits(viaEngine.FinalQuality) {
		t.Fatal("a search through a caller's in-process pool left the default search's trajectory")
	}
}
