package core

import (
	"log"
	"sync"
	"sync/atomic"

	"h2onas/internal/checkpoint"
)

// asyncCheckpointer moves snapshot encoding and file I/O off the step
// loop. The step loop still captures state synchronously (snapshot() is a
// deep copy, so later steps mutating the live weights cannot corrupt a
// queued snapshot), but the gob encode + atomic write + retention sweep
// happen on a dedicated persister goroutine.
//
// The queue is a single-slot channel: one snapshot can be in flight while
// the search advances, and if the search produces snapshots faster than
// the disk absorbs them, enqueue blocks — bounded memory, at-most-one
// step of backpressure. Snapshots are persisted strictly in enqueue
// order, so the newest snapshot on disk is always the newest captured
// state and resume semantics are identical to synchronous checkpointing.
type asyncCheckpointer struct {
	mgr     *checkpoint.Manager
	sm      searchMetrics
	ch      chan *checkpoint.Snapshot
	wg      sync.WaitGroup
	pending atomic.Int64
}

// newAsyncCheckpointer starts the persister goroutine. Returns nil when
// mgr is nil (checkpointing disabled) — all methods are nil-safe no-ops.
func newAsyncCheckpointer(mgr *checkpoint.Manager, sm searchMetrics) *asyncCheckpointer {
	if mgr == nil {
		return nil
	}
	a := &asyncCheckpointer{
		mgr: mgr,
		sm:  sm,
		ch:  make(chan *checkpoint.Snapshot, 1),
	}
	a.wg.Add(1)
	go a.persist()
	return a
}

func (a *asyncCheckpointer) persist() {
	defer a.wg.Done()
	for snap := range a.ch {
		if _, err := a.mgr.Save(snap); err != nil {
			// A failed write is logged and counted but never kills the
			// search; the next interval tries again.
			a.sm.CheckpointFailures.Inc()
			log.Printf("core: async checkpoint at step %d failed (search continues): %v", snap.Step, err)
		} else {
			a.sm.CheckpointsWritten.Inc()
		}
		a.sm.CheckpointPending.Set(float64(a.pending.Add(-1)))
	}
}

// enqueue hands a snapshot to the persister, blocking only if the
// previous snapshot is still being written and one more is already
// queued.
func (a *asyncCheckpointer) enqueue(snap *checkpoint.Snapshot) {
	if a == nil {
		return
	}
	a.sm.CheckpointPending.Set(float64(a.pending.Add(1)))
	a.ch <- snap
}

// Close drains the queue and waits for the persister to finish, so every
// snapshot captured before Close is durable when Close returns. Search
// defers Close, guaranteeing the final checkpoint is on disk before the
// Result is handed back.
func (a *asyncCheckpointer) Close() {
	if a == nil {
		return
	}
	close(a.ch)
	a.wg.Wait()
}
