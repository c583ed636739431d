package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"h2onas/internal/checkpoint"
	"h2onas/internal/metrics"
	"h2onas/internal/reward"
	"h2onas/internal/space"
)

func sameAssignment(a, b space.Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCandidateRingUnbounded(t *testing.T) {
	r := newCandidateRing(0)
	for i := 0; i < 10; i++ {
		r.Add(Candidate{Step: i})
	}
	if r.Len() != 10 {
		t.Fatalf("len = %d, want 10", r.Len())
	}
	items := r.Items()
	for i, c := range items {
		if c.Step != i {
			t.Fatalf("item %d has step %d", i, c.Step)
		}
	}
}

func TestCandidateRingBounded(t *testing.T) {
	r := newCandidateRing(3)
	for i := 0; i < 8; i++ {
		r.Add(Candidate{Step: i})
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
	items := r.Items()
	want := []int{5, 6, 7} // newest three, oldest first
	for i, c := range items {
		if c.Step != want[i] {
			t.Fatalf("items = %v at %d, want steps %v", c.Step, i, want)
		}
	}
}

// TestSearchMaxCandidatesBoundsResult runs the same search unbounded and
// bounded and checks the bounded result is exactly the tail of the
// unbounded candidate list.
func TestSearchMaxCandidatesBoundsResult(t *testing.T) {
	cfg := fastConfig(21)
	cfg.Steps, cfg.WarmupSteps = 12, 3

	s1, _ := testSearcher(t, reward.ReLU, 1.0, 21)
	full, err := s1.Search(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.MaxCandidates = 7
	s2, _ := testSearcher(t, reward.ReLU, 1.0, 21)
	bounded, err := s2.Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounded.Candidates) != 7 {
		t.Fatalf("bounded candidates = %d, want 7", len(bounded.Candidates))
	}
	tail := full.Candidates[len(full.Candidates)-7:]
	for i, c := range bounded.Candidates {
		w := tail[i]
		if c.Step != w.Step || c.Quality != w.Quality || c.Reward != w.Reward || !sameAssignment(c.Assignment, w.Assignment) {
			t.Fatalf("bounded candidate %d = %+v, want %+v", i, c, w)
		}
	}
	// Bounding must not perturb the search itself.
	if !sameAssignment(full.Best, bounded.Best) || full.FinalQuality != bounded.FinalQuality {
		t.Fatalf("bounding changed the search: best %v vs %v, finalQ %v vs %v",
			full.Best, bounded.Best, full.FinalQuality, bounded.FinalQuality)
	}
}

// TestAsyncCheckpointFailureDoesNotAbortSearch injects a write failure on
// every snapshot create and checks the search still completes, with the
// failures counted on the metrics registry.
func TestAsyncCheckpointFailureDoesNotAbortSearch(t *testing.T) {
	reg := metrics.New()
	fs := &checkpoint.FaultFS{
		FS: checkpoint.NewMemFS(),
		FailCreate: func(name string) error {
			return errors.New("injected: disk full")
		},
	}
	cfg := fastConfig(31)
	cfg.Steps, cfg.WarmupSteps = 8, 2
	cfg.CheckpointEvery = 1
	cfg.CheckpointDir = "ckpt"
	cfg.CheckpointFS = fs
	cfg.Metrics = reg

	s, _ := testSearcher(t, reward.ReLU, 1.0, 31)
	res, err := s.Search(cfg)
	if err != nil {
		t.Fatalf("search failed under checkpoint faults: %v", err)
	}
	if len(res.History) != 8 {
		t.Fatalf("history = %d steps, want 8", len(res.History))
	}
	if v := reg.Counter("search_checkpoint_failures_total").Value(); v != 10 {
		t.Fatalf("checkpoint failures = %d, want 10 (one per step)", v)
	}
	if v := reg.Counter("search_checkpoints_written_total").Value(); v != 0 {
		t.Fatalf("checkpoints written = %d, want 0", v)
	}
	if v := reg.Gauge("search_checkpoint_pending").Value(); v != 0 {
		t.Fatalf("pending gauge = %v after Search returned, want 0", v)
	}
}

// TestConcurrentSearchesRace runs independent searches (worker pools,
// async checkpointers) concurrently. Its value is under
// `go test -race`: it fails there if any of the per-search machinery
// leaks state across goroutines.
func TestConcurrentSearchesRace(t *testing.T) {
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := fastConfig(uint64(100 + g))
			cfg.Steps, cfg.WarmupSteps = 6, 2
			cfg.CheckpointEvery = 2
			cfg.CheckpointDir = "ckpt"
			cfg.CheckpointFS = checkpoint.NewMemFS()
			cfg.Metrics = metrics.New()
			s, _ := testSearcher(t, reward.ReLU, 1.0, uint64(200+g))
			res, err := s.Search(cfg)
			if err != nil {
				errs[g] = err
				return
			}
			if len(res.History) != 6 {
				errs[g] = fmt.Errorf("history = %d, want 6", len(res.History))
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("search %d: %v", g, err)
		}
	}
}
