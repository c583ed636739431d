package core

import "runtime"

// coreBudget partitions a search's core budget (Config.Workers) between
// the two levels of parallelism in a step: the shard fan-out (the
// workers running the shard replicas) and the kernel-level parallelism
// inside each replica's forward/backward pass (row-sharded kernels on
// the shared tensor worker pool). Left to themselves the two levels
// fight: shard workers and GOMAXPROCS-wide kernel fan-outs each assume
// they own the machine, so a step oversubscribes (Shards × GOMAXPROCS
// kernel workers) or leaves cores idle. The budget makes the split
// explicit: the fan-out runs on at most total workers, each replica's
// kernels get total/shards, and coordinator-exclusive phases (the
// spine's reduce/clip/step, the final evaluation) get the whole budget
// because nothing else is running.
//
// The budget is a performance knob only. Every dispatch it feeds is
// bit-deterministic for any worker count — parallelism is only ever
// across disjoint state with a fixed per-element accumulation order —
// so two runs with different budgets walk identical trajectories
// (TestEngineEquivalence's budget rows).
type coreBudget struct {
	total, shards int
}

// newCoreBudget divides total cores across shards concurrent shard
// workers. total <= 0 means GOMAXPROCS at call time; shards < 1 is
// treated as 1.
func newCoreBudget(total, shards int) coreBudget {
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	return coreBudget{total: total, shards: max(shards, 1)}
}

// workers is how many shards run at once: one worker per shard, but
// never more workers than cores. A step's shards are CPU-bound, so extra
// workers would only time-slice the same cores.
func (b coreBudget) workers() int { return min(b.shards, b.total) }

// perShard is the kernel-parallelism bound of one shard replica when all
// shards run concurrently: ⌊total/shards⌋, never below 1. With more
// shards than cores each replica runs its kernels serially (the fan-out
// itself is the parallelism); with more cores than shards the surplus
// goes into each replica's kernels.
func (b coreBudget) perShard() int { return max(b.total/b.shards, 1) }
