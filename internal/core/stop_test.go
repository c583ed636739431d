package core

import (
	"errors"
	"sync"
	"testing"

	"h2onas/internal/checkpoint"
	"h2onas/internal/reward"
)

// TestStopFlushesCheckpointAndResumesBitIdentically is the cooperative-
// cancellation contract: a run stopped via Config.Stop flushes a final
// snapshot before returning, and a fresh searcher resumed from that
// snapshot finishes the run with the uninterrupted run's trajectory.
func TestStopFlushesCheckpointAndResumesBitIdentically(t *testing.T) {
	base := ckptConfig(checkpoint.NewMemFS())
	base.CheckpointDir = ""
	base.CheckpointFS = nil
	base.CheckpointEvery = 0
	HarnessStopFlushesAndResumes(t, DLRMSearch, base)
}

// HarnessStopFlushesAndResumes is the body of the Stop contract; base is
// a run configuration with checkpointing off.
func HarnessStopFlushesAndResumes(t *testing.T, search SearchFunc, base Config) {
	seed := uint64(77)
	golden, err := search(t, seed, base)
	if err != nil {
		t.Fatal(err)
	}

	// Stopped run: no periodic snapshots (Every far beyond the run), so
	// the only snapshot on disk is the one the stop seam flushes.
	fs := checkpoint.NewMemFS()
	cfg := base
	cfg.CheckpointDir = "ckpt"
	cfg.CheckpointFS = fs
	cfg.CheckpointEvery = 1000
	stop := make(chan struct{})
	var once sync.Once
	cfg.Stop = stop
	cfg.Progress = func(info StepInfo) {
		if info.Step >= 2 {
			once.Do(func() { close(stop) })
		}
	}
	partial, err := search(t, seed, cfg)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped search returned %v, want ErrStopped", err)
	}
	if partial == nil || len(partial.History) == 0 || len(partial.History) >= len(golden.History) {
		t.Fatalf("partial history length %d, want in (0, %d)", len(partial.History), len(golden.History))
	}

	mgr := &checkpoint.Manager{Dir: cfg.CheckpointDir, FS: fs}
	steps, err := mgr.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 {
		t.Fatalf("snapshots on disk %v, want exactly the stop-flushed one", steps)
	}
	wantStep := int64(cfg.WarmupSteps + partial.History[len(partial.History)-1].Step + 1)
	if steps[0] != wantStep {
		t.Fatalf("stop flushed snapshot at step %d, want %d", steps[0], wantStep)
	}

	// Resume past the stop point and finish: bit-identical to golden.
	rcfg := base
	rcfg.CheckpointDir = cfg.CheckpointDir
	rcfg.CheckpointFS = fs
	rcfg.Resume = true
	resumed, err := search(t, seed, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ResumedFrom != steps[0] {
		t.Fatalf("ResumedFrom = %d, want %d", resumed.ResumedFrom, steps[0])
	}
	requireSameBest(t, golden.Best, resumed.Best)
	requireSameHistory(t, golden.History, resumed.History)
	if golden.FinalQuality != resumed.FinalQuality {
		t.Fatalf("FinalQuality %v != golden %v", resumed.FinalQuality, golden.FinalQuality)
	}
}

// TestStopWithoutCheckpointingStillStops covers the seam when no
// checkpoint directory is configured: the run returns ErrStopped with
// whatever history it accumulated, and nothing is written anywhere.
func TestStopWithoutCheckpointingStillStops(t *testing.T) {
	cfg := fastConfig(9)
	cfg.Steps, cfg.WarmupSteps = 5, 2
	stop := make(chan struct{})
	close(stop)
	cfg.Stop = stop
	s, _ := testSearcher(t, reward.ReLU, 1.0, 9)
	res, err := s.Search(cfg)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if len(res.History) != 0 {
		t.Fatalf("a search stopped before its first step has history %v", res.History)
	}
}
