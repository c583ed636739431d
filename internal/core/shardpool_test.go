package core

import (
	"sync/atomic"
	"testing"
	"time"

	"h2onas/internal/nn"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

type gaugeBatch struct{}

func (gaugeBatch) UseForArch()    {}
func (gaugeBatch) UseForWeights() {}

// gaugeNet is a Network that only records how many of its kind are
// inside Loss at once.
type gaugeNet struct {
	running, peak *atomic.Int32
	backward      int
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
func (n *gaugeNet) Backward(*tensor.Matrix)                      { n.backward++ }
func (n *gaugeNet) Quality(space.Assignment, gaugeBatch) float64 { return 0 }
func (n *gaugeNet) Params() []*nn.Param                          { return nil }
func (n *gaugeNet) SetArena(*tensor.Arena)                       {}
func (n *gaugeNet) SetWorkers(int)                               {}

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
	pool := newShardPool[gaugeBatch](&cfg, newSearchMetrics(nil), replicas, workers)
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
