package core

import (
	"bytes"
	"io"
	"log"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"h2onas/internal/checkpoint"
	"h2onas/internal/nn"
	"h2onas/internal/reward"
	"h2onas/internal/space"
)

// FrozenClock never advances and counts the backoff sleeps asked of it;
// shard workers back off concurrently.
type FrozenClock struct{ sleeps atomic.Int32 }

func (*FrozenClock) Now() time.Time        { return time.Unix(1754400000, 0) }
func (c *FrozenClock) Sleep(time.Duration) { c.sleeps.Add(1) }

// Sleeps returns how many sleeps were asked of the clock.
func (c *FrozenClock) Sleeps() int { return int(c.sleeps.Load()) }

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
	cfg.Clock = &FrozenClock{}
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
// seeded with seed, under cfg. The engine-contract harnesses outside
// TestEngineEquivalence (degrade to survivors, no goroutine leak) are
// written against it, so every space the step engine serves is held to
// them by one more call: the DLRM cases are the tests in this package,
// the transformer cases live in vit_test.go (package core_test, which
// may import vitnet).
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
	r, err := fs.Open(newest)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(r)
	data[len(data)/2] ^= 0xff
	if err := checkpoint.WriteFileAtomic(fs, newest, data); err != nil {
		t.Fatal(err)
	}

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

// TestResumeLogsOnlyUnusableSnapshots pins that a fresh start under
// Resume is silent — every fresh job resumes from an empty directory —
// while snapshots that exist but do not load are reported.
func TestResumeLogsOnlyUnusableSnapshots(t *testing.T) {
	var out bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&out)
	defer log.SetOutput(prev)
	run := func(fs checkpoint.FS) string {
		t.Helper()
		out.Reset()
		cfg := ckptConfig(fs)
		cfg.Steps, cfg.WarmupSteps = 1, 0
		cfg.CheckpointEvery = 0
		cfg.Resume = true
		s, _ := testSearcher(t, reward.ReLU, 1.0, 56)
		res, err := s.Search(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.ResumedFrom != 0 {
			t.Fatalf("ResumedFrom = %d for a fresh start", res.ResumedFrom)
		}
		return out.String()
	}

	if got := run(checkpoint.NewMemFS()); got != "" {
		t.Fatalf("a fresh start from an empty directory logged:\n%s", got)
	}
	corrupt := checkpoint.NewMemFS()
	if err := checkpoint.WriteFileAtomic(corrupt, "ckpt/"+checkpoint.SnapshotName(2), []byte("not a snapshot")); err != nil {
		t.Fatal(err)
	}
	if got := run(corrupt); !strings.Contains(got, "none of the 1 snapshots in ckpt loaded; starting fresh") {
		t.Fatalf("a directory of unusable snapshots was not reported; log:\n%s", got)
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

// TestResumeTwiceReproducesRun crashes a run at step a, resumes it, lets
// the resumed run crash at step b and resumes again. Snapshots carry only
// the params and rows a step ever updated, so the first resume must
// re-mark what it restored: the resumed run's snapshot at b must be
// byte-identical to the uninterrupted run's — rows stepped only before a
// included — and the twice-resumed result document must equal the
// uninterrupted one.
func TestResumeTwiceReproducesRun(t *testing.T) {
	const a, b = 3, 7
	fs := checkpoint.NewMemFS()
	cfg := ckptConfig(fs)
	golden, err := DLRMSearch(t, 21, cfg)
	if err != nil {
		t.Fatal(err)
	}
	load := func(fs checkpoint.FS, step int64) (*checkpoint.Snapshot, []byte) {
		t.Helper()
		mgr := &checkpoint.Manager{Dir: cfg.CheckpointDir, FS: fs}
		snap, err := mgr.Load("ckpt/" + checkpoint.SnapshotName(step))
		if err != nil {
			t.Fatalf("loading snapshot %d: %v", step, err)
		}
		return snap, checkpoint.EncodeBytes(snap)
	}
	snapA, _ := load(fs, a)
	_, goldenB := load(fs, b)

	// First resume, from a, checkpointing every step into its own dir:
	// its snapshot at b is what a crash at b would leave on disk.
	onceFS := checkpoint.NewMemFS()
	if _, err := (&checkpoint.Manager{Dir: cfg.CheckpointDir, FS: onceFS}).Save(snapA); err != nil {
		t.Fatal(err)
	}
	once := cfg
	once.CheckpointFS, once.Resume = onceFS, true
	if _, err := DLRMSearch(t, 21, once); err != nil {
		t.Fatal(err)
	}
	snapB, onceB := load(onceFS, b)
	if !bytes.Equal(onceB, goldenB) {
		t.Fatal("the resumed run's snapshot at step b differs from the uninterrupted run's")
	}
	for i, ps := range snapA.Adam.Params {
		if ps.Kind == nn.SteppedRows && snapB.Adam.Params[i].Kind == nn.SteppedRows &&
			len(snapB.Adam.Params[i].Rows) < len(ps.Rows) {
			t.Fatalf("param %d: snapshot b carries %d stepped rows, fewer than snapshot a's %d", i, len(snapB.Adam.Params[i].Rows), len(ps.Rows))
		}
	}

	twice, err := DLRMSearch(t, 21, resumeOnlyFrom(t, cfg, snapB))
	if err != nil {
		t.Fatal(err)
	}
	if twice.ResumedFrom != b {
		t.Fatalf("ResumedFrom = %d, want %d", twice.ResumedFrom, b)
	}
	sp := space.NewDLRMSpace(space.SmallDLRMConfig()).Space
	want, err := golden.ResultDocument(sp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := twice.ResultDocument(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("twice-resumed result document differs from the uninterrupted run's\ngot:\n%s\nwant:\n%s", got, want)
	}
}
