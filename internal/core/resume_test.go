package core

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"h2onas/internal/checkpoint"
	"h2onas/internal/reward"
	"h2onas/internal/space"
)

// testClock never advances and records the sleeps asked of it; shard
// workers back off concurrently, so recording is locked.
type testClock struct {
	now    time.Time
	mu     sync.Mutex
	sleeps []time.Duration
}

func (c *testClock) Now() time.Time { return c.now }
func (c *testClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.sleeps = append(c.sleeps, d)
	c.mu.Unlock()
}

// ckptConfig is a deliberately tiny run — every step checkpointed into an
// in-memory filesystem — sized so the crash-at-every-step sweep stays
// fast.
func ckptConfig(fs checkpoint.FS) Config {
	cfg := fastConfig(3)
	cfg.Shards = 3
	cfg.Steps = 7
	cfg.WarmupSteps = 3
	cfg.BatchSize = 16
	cfg.CheckpointEvery = 1
	cfg.CheckpointDir = "ckpt"
	cfg.CheckpointFS = fs
	cfg.Clock = &testClock{now: time.Unix(1754400000, 0)}
	return cfg
}

func requireSameHistory(t *testing.T, golden, resumed []StepInfo) {
	t.Helper()
	if len(golden) != len(resumed) {
		t.Fatalf("history length %d, golden %d", len(resumed), len(golden))
	}
	for i := range golden {
		if golden[i] != resumed[i] {
			t.Fatalf("history[%d] = %+v, golden %+v", i, resumed[i], golden[i])
		}
	}
}

func requireSameBest(t *testing.T, golden, resumed space.Assignment) {
	t.Helper()
	if len(golden) != len(resumed) {
		t.Fatalf("Best length %d, golden %d", len(resumed), len(golden))
	}
	for i := range golden {
		if golden[i] != resumed[i] {
			t.Fatalf("Best[%d] = %d, golden %d (full: %v vs %v)",
				i, resumed[i], golden[i], resumed, golden)
		}
	}
}

// SearchFunc runs a fresh searcher of one search space, its traffic
// seeded with seed, under cfg. The engine-contract harnesses (resume,
// Stop, shard faults, core budgets) are written against it, so every
// space the step engine serves is held to them by one more call: the
// DLRM cases are the tests in this package, the transformer cases live
// in vit_test.go (package core_test, which may import vitnet).
type SearchFunc func(t *testing.T, seed uint64, cfg Config) (*Outcome, error)

// DLRMSearch is the DLRM SearchFunc.
func DLRMSearch(t *testing.T, seed uint64, cfg Config) (*Outcome, error) {
	s, _ := testSearcher(t, reward.ReLU, 1.0, seed)
	res, err := s.Search(cfg)
	if res == nil {
		return nil, err
	}
	return &res.Outcome, err
}

// TestResumeFromEverySnapshotReproducesRun is the crash-at-every-step
// harness: a golden run checkpoints after every step, then for each
// snapshot a fresh searcher resumes from it and must reproduce the golden
// run's final architecture, reward history and candidate tail
// bit-for-bit. Under -short only the first, middle and last mid-run
// snapshots are swept.
func TestResumeFromEverySnapshotReproducesRun(t *testing.T) {
	fs := checkpoint.NewMemFS()
	HarnessResumeFromEverySnapshot(t, DLRMSearch, ckptConfig(fs), fs)
}

// HarnessResumeFromEverySnapshot is the body of the crash-at-every-step
// sweep; cfg must checkpoint every step into fs.
func HarnessResumeFromEverySnapshot(t *testing.T, search SearchFunc, cfg Config, fs *checkpoint.MemFS) {
	golden, err := search(t, 21, cfg)
	if err != nil {
		t.Fatal(err)
	}

	mgr := &checkpoint.Manager{Dir: cfg.CheckpointDir, FS: fs}
	steps, err := mgr.List()
	if err != nil {
		t.Fatal(err)
	}
	total := int64(cfg.WarmupSteps + cfg.Steps)
	if len(steps) != int(total) || steps[0] != 1 || steps[len(steps)-1] != total {
		t.Fatalf("snapshot steps %v, want 1..%d", steps, total)
	}

	sweep := steps
	if testing.Short() {
		sweep = []int64{steps[0], steps[len(steps)/2], total - 1}
	}
	for _, k := range sweep {
		snap, err := mgr.Load("ckpt/" + checkpoint.SnapshotName(k))
		if err != nil {
			t.Fatalf("loading snapshot %d: %v", k, err)
		}
		resumed, err := search(t, 21, resumeOnlyFrom(t, cfg, snap))
		if err != nil {
			t.Fatalf("resume from step %d: %v", k, err)
		}
		if resumed.ResumedFrom != k {
			t.Fatalf("ResumedFrom = %d, want %d", resumed.ResumedFrom, k)
		}
		requireSameBest(t, golden.Best, resumed.Best)
		if k < total {
			// A run resumed mid-way replays the exact trajectory; the
			// final-quality eval races with producer prefetch only when the
			// loop body never runs, so it is compared for mid-run resumes.
			requireSameHistory(t, golden.History, resumed.History)
			if d := math.Abs(golden.FinalQuality - resumed.FinalQuality); d > 1e-9 {
				t.Fatalf("resume from %d: FinalQuality drifted by %g", k, d)
			}
			want := golden.Candidates[len(golden.Candidates)-len(resumed.Candidates):]
			for i := range want {
				g, r := want[i], resumed.Candidates[i]
				if g.Step != r.Step || g.Quality != r.Quality || g.Reward != r.Reward {
					t.Fatalf("resume from %d: candidate %d = %+v, golden %+v", k, i, r, g)
				}
			}
		}
	}
}

// resumeOnlyFrom returns cfg set to resume from exactly snap: the snapshot
// is saved alone into a fresh in-memory directory, and the resumed run
// does not re-checkpoint.
func resumeOnlyFrom(t *testing.T, cfg Config, snap *checkpoint.Snapshot) Config {
	t.Helper()
	fs := checkpoint.NewMemFS()
	if _, err := (&checkpoint.Manager{Dir: "resume", FS: fs}).Save(snap); err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointDir, cfg.CheckpointFS = "resume", fs
	cfg.CheckpointEvery = 0
	cfg.Resume = true
	return cfg
}

// TestResumeLatestFromDir exercises the Resume flag end to end: the
// newest snapshot in the directory is picked up automatically.
func TestResumeLatestFromDir(t *testing.T) {
	fs := checkpoint.NewMemFS()
	cfg := ckptConfig(fs)
	s, _ := testSearcher(t, reward.ReLU, 1.0, 33)
	golden, err := s.Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Resume = true
	rcfg.CheckpointEvery = 0
	rs, _ := testSearcher(t, reward.ReLU, 1.0, 33)
	resumed, err := rs.Search(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(cfg.WarmupSteps + cfg.Steps); resumed.ResumedFrom != want {
		t.Fatalf("ResumedFrom = %d, want %d", resumed.ResumedFrom, want)
	}
	requireSameBest(t, golden.Best, resumed.Best)
	requireSameHistory(t, golden.History, resumed.History)
}

// TestResumeSkipsCorruptNewestSnapshot corrupts the newest snapshot; the
// run must fall back to the previous one and still reproduce the golden
// trajectory.
func TestResumeSkipsCorruptNewestSnapshot(t *testing.T) {
	fs := checkpoint.NewMemFS()
	cfg := ckptConfig(fs)
	s, _ := testSearcher(t, reward.ReLU, 1.0, 44)
	golden, err := s.Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	newest := "ckpt/" + checkpoint.SnapshotName(int64(cfg.WarmupSteps+cfg.Steps))
	data, ok := fs.ReadFile(newest)
	if !ok {
		t.Fatalf("missing %s", newest)
	}
	data[len(data)/2] ^= 0xff
	fs.WriteFile(newest, data)

	rcfg := cfg
	rcfg.Resume = true
	rcfg.CheckpointEvery = 0
	rs, _ := testSearcher(t, reward.ReLU, 1.0, 44)
	resumed, err := rs.Search(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(cfg.WarmupSteps + cfg.Steps - 1); resumed.ResumedFrom != want {
		t.Fatalf("ResumedFrom = %d, want fallback to %d", resumed.ResumedFrom, want)
	}
	requireSameBest(t, golden.Best, resumed.Best)
	requireSameHistory(t, golden.History, resumed.History)
}

func TestResumeWithEmptyDirStartsFresh(t *testing.T) {
	fs := checkpoint.NewMemFS()
	cfg := ckptConfig(fs)
	cfg.Resume = true
	s, _ := testSearcher(t, reward.ReLU, 1.0, 55)
	res, err := s.Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFrom != 0 {
		t.Fatalf("ResumedFrom = %d for a fresh start", res.ResumedFrom)
	}
	if len(res.History) != cfg.Steps {
		t.Fatalf("history length %d, want %d", len(res.History), cfg.Steps)
	}
}

func TestResumeRejectsMismatchedConfig(t *testing.T) {
	fs := checkpoint.NewMemFS()
	cfg := ckptConfig(fs)
	s, _ := testSearcher(t, reward.ReLU, 1.0, 66)
	if _, err := s.Search(cfg); err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Resume = true
	rcfg.Shards = cfg.Shards + 1 // different fan-out → different trajectory
	rs, _ := testSearcher(t, reward.ReLU, 1.0, 66)
	_, err := rs.Search(rcfg)
	if err == nil {
		t.Fatal("resume across a config change accepted")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("error %q does not mention the fingerprint mismatch", err)
	}
}

func TestResumeRequiresCheckpointDir(t *testing.T) {
	cfg := fastConfig(1)
	cfg.Steps, cfg.WarmupSteps = 2, 1
	cfg.Resume = true
	s, _ := testSearcher(t, reward.ReLU, 1.0, 1)
	if _, err := s.Search(cfg); err == nil {
		t.Fatal("Resume without CheckpointDir accepted")
	}
}
