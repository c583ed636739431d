// Package sched partitions the machine's core budget between the two
// levels of parallelism in a search step: the shard fan-out (worker
// goroutines running the simulated accelerator shards) and the
// kernel-level parallelism inside each shard's forward/backward pass
// (row-sharded matmuls on the shared tensor worker pool).
//
// Before this layer existed the two levels fought: the shard workers and
// the GOMAXPROCS-sized kernel pool each assumed they owned the machine,
// so a step either oversubscribed (Shards × GOMAXPROCS-way kernels) or
// left cores idle (Shards < cores with every per-shard kernel below the
// static parallel threshold running serial). A Budget makes the split
// explicit: the shard fan-out runs on at most Total workers, each shard's
// kernels get Total/Shards, and coordinator-exclusive phases (the spine's
// reduce/clip/step, the final evaluation) get the whole budget because
// nothing else is running.
//
// The budget is a performance knob only. Every dispatch it feeds is
// bit-deterministic for any worker count — parallelism is only ever
// across disjoint state with fixed per-element accumulation order — so
// two runs with different budgets produce identical trajectories.
package sched

import "runtime"

// Budget is a core budget partitioned across concurrent shard workers.
// The zero value is not meaningful; use New.
type Budget struct {
	total  int
	shards int
}

// New returns a budget of total cores divided across shards concurrent
// shard workers. total <= 0 means GOMAXPROCS at call time; shards < 1 is
// treated as 1.
func New(total, shards int) Budget {
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	if shards < 1 {
		shards = 1
	}
	return Budget{total: total, shards: shards}
}

// Total returns the whole budget: the worker bound for phases that own
// the machine (the spine's cross-shard reduce and fused clip+Adam step,
// the final quality evaluation).
func (b Budget) Total() int { return b.total }

// Shards returns the shard count the budget was partitioned for.
func (b Budget) Shards() int { return b.shards }

// Workers returns how many shards run at once: one worker per shard, but
// never more workers than cores. A step's shards are CPU-bound, so extra
// workers would only time-slice the same cores.
func (b Budget) Workers() int { return min(b.shards, b.total) }

// PerShard returns the kernel-parallelism bound for one shard worker
// when all shards run concurrently: ⌊total/shards⌋, never below 1. With
// more shards than cores each shard runs its kernels serially (the shard
// fan-out itself is the parallelism); with more cores than shards the
// surplus goes into each shard's kernels.
func (b Budget) PerShard() int {
	per := b.total / b.shards
	if per < 1 {
		per = 1
	}
	return per
}
