package core

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"h2onas/internal/checkpoint"
)

// RequireNoGoroutineLeak runs fn and fails unless the process's goroutine
// count is back at (or below) its pre-call value within a bounded settle
// period: a goroutine told to exit by a channel close needs a few
// scheduler turns to actually do so. Long-lived process-wide goroutines
// (the shared kernel pool) must be started before the call — run fn's
// work once beforehand.
func RequireNoGoroutineLeak(t *testing.T, what string, fn func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	fn()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines before the call, %d after it\n%s",
				what, before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSearchLeaksNoGoroutines holds the DLRM search to the no-leak
// contract on every exit path.
func TestSearchLeaksNoGoroutines(t *testing.T) {
	cfg := faultConfig()
	cfg.Steps, cfg.WarmupSteps = 3, 1
	HarnessSearchLeaksNoGoroutines(t, DLRMSearch, cfg)
}

// HarnessSearchLeaksNoGoroutines is the body of the no-leak contract: the
// shard workers, the batch producer, the spine stage and the checkpoint
// persister a search starts are all gone once it has returned — normally,
// stopped, refused at restore, or with every shard dropped at every step.
// cfg is a short run with checkpointing off.
func HarnessSearchLeaksNoGoroutines(t *testing.T, search SearchFunc, cfg Config) {
	// Starts the process-wide kernel pool, which outlives any one search.
	if _, err := search(t, 31, cfg); err != nil {
		t.Fatal(err)
	}

	fs := checkpoint.NewMemFS()
	ck := cfg
	ck.CheckpointDir, ck.CheckpointFS, ck.CheckpointEvery = "ckpt", fs, 1
	RequireNoGoroutineLeak(t, "normal return, checkpointing", func() {
		if _, err := search(t, 31, ck); err != nil {
			t.Fatal(err)
		}
	})

	RequireNoGoroutineLeak(t, "ErrStopped", func() {
		stopped := ck
		stopped.CheckpointFS = checkpoint.NewMemFS()
		stop := make(chan struct{})
		var once sync.Once
		stopped.Stop = stop
		stopped.Progress = func(StepInfo) { once.Do(func() { close(stop) }) }
		if _, err := search(t, 31, stopped); !errors.Is(err, ErrStopped) {
			t.Fatalf("stopped search returned %v, want ErrStopped", err)
		}
	})

	RequireNoGoroutineLeak(t, "restore error", func() {
		refused := ck
		refused.Resume = true
		refused.Shards++ // another fan-out: the fingerprint refuses the snapshot
		if _, err := search(t, 31, refused); err == nil {
			t.Fatal("resume across a config change accepted")
		}
	})

	RequireNoGoroutineLeak(t, "all shards dropped", func() {
		dead := cfg
		dead.Clock = &FrozenClock{}
		dead.ShardFault = func(step, shard, attempt int) error { return errors.New("whole fleet offline") }
		res, err := search(t, 31, dead)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.History) != 0 {
			t.Fatalf("history length %d with every shard dropped at every step, want 0", len(res.History))
		}
	})
}
