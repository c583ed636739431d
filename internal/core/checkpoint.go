package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"log"

	"h2onas/internal/checkpoint"
	"h2onas/internal/nn"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

// searchState is everything a step's outcome depends on besides the
// traffic stream's position: what a snapshot captures and a restore
// overwrites. The weights are the master super-network's Params(), so
// checkpointing is the same code for every search space.
type searchState struct {
	cfg        *Config
	space      *space.Space
	membership string // the transport's fleet identity
	rng        *tensor.RNG
	strat      Strategy
	params     []*nn.Param
	opt        *nn.Adam
	out        *Outcome
}

// fingerprint derives the identity string stored in snapshots. Two
// runs with the same fingerprint walk the same trajectory, so resuming
// across a fingerprint mismatch would silently diverge and is refused.
// Steps is deliberately excluded: resuming a finished run with a larger
// Steps budget extends it deterministically. The transport membership is
// included (v2) because a resumed multi-node run is only bit-identical on
// the same fleet: a changed worker set shifts which shards drop when, so
// resume refuses it rather than diverging silently. The strategy
// identity is included (v3) — strategies consume the coordinator RNG and
// carry their own serialized state, so resuming a snapshot under a
// different strategy (or the same strategy differently configured, which
// changes its Name) is refused the same way.
//
// The space's name and decision list are part of it, so a snapshot
// written by one search space is refused by every other.
func (st *searchState) fingerprint() string {
	h := fnv.New64a()
	for _, d := range st.space.Decisions {
		fmt.Fprintf(h, "%s:%d|", d.Name, d.Arity())
	}
	cfg := st.cfg
	return fmt.Sprintf("core.Search/v3 space=%s/%d/%016x shards=%d batch=%d warmup=%d seed=%d sandwich=%t strategy=%s transport=%s",
		st.space.Name, len(st.space.Decisions), h.Sum64(),
		cfg.Shards, cfg.BatchSize, cfg.WarmupSteps, cfg.Seed, !cfg.DisableSandwich, st.strat.Name(), st.membership)
}

// snapshot captures the complete search state after nextStep-1 completed
// steps. Everything a step's outcome depends on is included, so a
// restored run is bit-identical to the uninterrupted one. The weights
// travel as the optimizer's export: only the params and rows a step ever
// updated, since every other value is what a fresh network of the same
// seed holds (see maybeRestore). The strategy serializes itself into an
// opaque StrategyState blob, tagged with its Name so resume can refuse a
// cross-strategy restore before decoding.
func (st *searchState) snapshot(nextStep int, batchesConsumed int64) *checkpoint.Snapshot {
	history := make([]checkpoint.StepRecord, len(st.out.History))
	for i, h := range st.out.History {
		history[i] = checkpoint.StepRecord{
			Step:       int64(h.Step),
			MeanReward: h.MeanReward,
			MeanQ:      h.MeanQ,
			Entropy:    h.Entropy,
			Confidence: h.Confidence,
		}
	}
	return &checkpoint.Snapshot{
		Step:            int64(nextStep),
		BatchesConsumed: batchesConsumed,
		Fingerprint:     st.fingerprint(),
		RNG:             st.rng.State(),
		Strategy:        st.strat.Name(),
		StrategyState:   st.strat.StateBytes(),
		Adam:            st.opt.Export(st.params),
		History:         history,
	}
}

// maybeCheckpoint captures a periodic snapshot after step completed and
// hands it to the async persister. The snapshot itself is taken
// synchronously — it is a deep copy, so the step loop is free to keep
// mutating the live state — while encoding and the file write happen off
// the step loop. A failed write is logged and counted by the persister
// but never kills the search.
func (st *searchState) maybeCheckpoint(ck *asyncCheckpointer, step int, batchesConsumed int64) {
	if ck == nil || st.cfg.CheckpointEvery <= 0 || (step+1)%st.cfg.CheckpointEvery != 0 {
		return
	}
	ck.enqueue(st.snapshot(step+1, batchesConsumed))
}

// streamCursor is the batch-type-independent part of a Source: what
// restore needs to reposition the traffic stream.
type streamCursor interface {
	ExamplesServed() int64
	Skip(nBatches int64, batchSize int)
}

// maybeRestore applies, under cfg.Resume, the newest valid snapshot in
// the checkpoint directory to the freshly constructed search state: a
// master built from cfg.Seed and an optimizer that has not stepped,
// before the pipeline starts — the precondition nn.Adam.Import states. It
// returns the step index to continue from and the number of batches the
// checkpointed run had consumed; (0, 0) means a fresh start. The stream
// must be unused: it is fast-forwarded to the checkpoint's position.
func (st *searchState) maybeRestore(mgr *checkpoint.Manager, stream streamCursor) (startStep int, consumedBase int64, err error) {
	cfg, strat := st.cfg, st.strat
	if !cfg.Resume {
		return 0, 0, nil
	}
	if mgr == nil {
		return 0, 0, fmt.Errorf("core: Resume requires CheckpointDir")
	}
	snap, path, err := mgr.LoadLatest()
	if errors.Is(err, checkpoint.ErrNoCheckpoint) {
		// A bare ErrNoCheckpoint is an empty or missing directory, an
		// ordinary first start; only snapshots that were there and did
		// not load are worth a line.
		if err != checkpoint.ErrNoCheckpoint {
			log.Printf("core: %v; starting fresh", err)
		}
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	log.Printf("core: resuming from %s (step %d)", path, snap.Step)

	if snap.Strategy != strat.Name() {
		return 0, 0, fmt.Errorf("core: checkpoint was written by strategy %q; this run uses %q — strategies carry incompatible state, pick the matching one or start fresh", snap.Strategy, strat.Name())
	}
	if want := st.fingerprint(); snap.Fingerprint != want {
		return 0, 0, fmt.Errorf("core: checkpoint fingerprint %q does not match this run (%q) — it was written by a different configuration", snap.Fingerprint, want)
	}
	if snap.Step < 0 || snap.Step > int64(cfg.WarmupSteps+cfg.Steps) {
		return 0, 0, fmt.Errorf("core: checkpoint step %d outside this run's %d total steps", snap.Step, cfg.WarmupSteps+cfg.Steps)
	}
	if snap.BatchesConsumed < 0 {
		return 0, 0, fmt.Errorf("core: checkpoint has negative consumed-batch count %d", snap.BatchesConsumed)
	}
	if stream.ExamplesServed() != 0 {
		return 0, 0, fmt.Errorf("core: resume requires an unused traffic stream (it is fast-forwarded to the checkpoint's position)")
	}

	// All validation passed; apply. The strategy validates its own blob
	// (shape checks live with the state they guard), so restore it first —
	// a rejected blob leaves the weights untouched too.
	if err := strat.RestoreState(snap.StrategyState); err != nil {
		return 0, 0, fmt.Errorf("core: restoring %s strategy state: %w", snap.Strategy, err)
	}
	if err := st.opt.Import(st.params, snap.Adam); err != nil {
		return 0, 0, fmt.Errorf("core: restoring super-network weights and optimizer state: %w", err)
	}
	st.rng.SetState(snap.RNG)
	stream.Skip(snap.BatchesConsumed, cfg.BatchSize)
	st.out.History = make([]StepInfo, len(snap.History))
	for i, h := range snap.History {
		st.out.History[i] = StepInfo{
			Step:       int(h.Step),
			MeanReward: h.MeanReward,
			MeanQ:      h.MeanQ,
			Entropy:    h.Entropy,
			Confidence: h.Confidence,
		}
	}
	st.out.ResumedFrom = snap.Step
	return int(snap.Step), snap.BatchesConsumed, nil
}
