package jobs

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"h2onas/internal/checkpoint"
	"h2onas/internal/metrics"
)

// crashSpec is the run the crash harness interrupts: long enough to have
// distinct phases (warmup, between periodic snapshots, at a snapshot
// boundary, final step), short enough to run many times.
func crashSpec(seed uint64) Spec {
	return Spec{Steps: 4, Shards: 2, Batch: 8, Warmup: 1, Seed: seed}
}

func readArtifact(t *testing.T, s *Service, tenant, id, name string) []byte {
	t.Helper()
	f, err := s.Artifact(tenant, id, name)
	if err != nil {
		t.Fatalf("opening artifact %s of %s: %v", name, id, err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runControl runs the spec to completion on a fresh service and returns
// its result.json bytes — the golden bytes every interrupted-and-resumed
// variant must reproduce exactly.
func runControl(t *testing.T, spec Spec, every int) []byte {
	t.Helper()
	s, err := Open("root", Options{Workers: 1, CheckpointEvery: every, FS: checkpoint.NewMemFS(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec, err := s.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "control job done", func() bool {
		st, err := s.Status("alice", rec.ID)
		return err == nil && st.State == StateDone
	})
	return readArtifact(t, s, "alice", rec.ID, "result.json")
}

// TestCrashAtEveryStepResumesByteIdentically is the restart contract: a
// job whose process dies at any step — leaving a journal that still says
// running and whatever snapshots were durable — is re-enqueued on
// restart, resumes from its newest snapshot, and produces a result.json
// byte-identical to the uninterrupted control. The crash is simulated by
// the crashStep hook, which makes the runner vanish without journaling,
// exactly the on-disk state a SIGKILL leaves behind (the CI jobs-chaos
// leg kills a real process the same way).
func TestCrashAtEveryStepResumesByteIdentically(t *testing.T) {
	spec := crashSpec(42)
	const every = 2
	golden := runControl(t, spec, every)

	for k := 0; k < spec.Steps; k++ {
		k := k
		t.Run(fmt.Sprintf("crash-at-step-%d", k), func(t *testing.T) {
			fs := checkpoint.NewMemFS()
			s, err := Open("root", Options{Workers: 1, CheckpointEvery: every, FS: fs, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			s.crashStep = func(id string, step int) bool { return step == k }
			rec, err := s.Submit("alice", spec)
			if err != nil {
				t.Fatal(err)
			}
			// The hook fires at step k; the stop seam lands at the next
			// boundary. A hook at the final step never reaches another
			// boundary, so the job completes instead — both outcomes are
			// legitimate post-"crash" states to recover from.
			waitFor(t, "crash or completion", func() bool {
				st, err := s.Status("alice", rec.ID)
				if err != nil {
					return false
				}
				crashed := st.State == StateRunning && st.Progress == nil
				return crashed || st.State.Terminal()
			})
			s.Drain()

			reg := metrics.New()
			s2, err := Open("root", Options{Workers: 1, CheckpointEvery: every, FS: fs, Metrics: reg, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			waitFor(t, "resumed job done", func() bool {
				st, err := s2.Status("alice", rec.ID)
				return err == nil && st.State == StateDone
			})
			st, err := s2.Status("alice", rec.ID)
			if err != nil {
				t.Fatal(err)
			}
			if got := readArtifact(t, s2, "alice", rec.ID, "result.json"); !bytes.Equal(got, golden) {
				t.Fatalf("crash at step %d: result.json diverged from control\ngot:\n%s\nwant:\n%s", k, got, golden)
			}
			if st.Resumes > 0 {
				if want := reg.Counter("jobs_resumed_total").Value(); want != 1 {
					t.Fatalf("jobs_resumed_total = %d after one recovery", want)
				}
			}
		})
	}
}

// TestRestartAfterCrashBetweenArtifactsAndJournal covers the narrowest
// window: the process died after the artifacts became durable but before
// the done record did. The journal replays to running, recovery resumes
// the job — possibly landing exactly on the final step, where the
// re-evaluated final quality is prefetch-sensitive — and the pre-crash
// artifacts are preserved verbatim because completed artifact writes are
// never repeated.
func TestRestartAfterCrashBetweenArtifactsAndJournal(t *testing.T) {
	spec := crashSpec(43)
	for _, every := range []int{2, 5} { // 5 divides warmup+steps: resume lands at the final step
		every := every
		t.Run(fmt.Sprintf("every-%d", every), func(t *testing.T) {
			fs := checkpoint.NewMemFS()
			s, err := Open("root", Options{Workers: 1, CheckpointEvery: every, FS: fs, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			rec, err := s.Submit("alice", spec)
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, "job done", func() bool {
				st, err := s.Status("alice", rec.ID)
				return err == nil && st.State == StateDone
			})
			golden := readArtifact(t, s, "alice", rec.ID, "result.json")
			s.Drain()

			// Forge the crash: drop the done record (seq 3), so the newest
			// surviving journal record says running.
			if err := fs.Remove(filepath.Join("root", "journal", journalName(rec.ID, 3))); err != nil {
				t.Fatal(err)
			}

			s2, err := Open("root", Options{Workers: 1, CheckpointEvery: every, FS: fs, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			waitFor(t, "re-finished job", func() bool {
				st, err := s2.Status("alice", rec.ID)
				return err == nil && st.State == StateDone
			})
			st, _ := s2.Status("alice", rec.ID)
			if st.Resumes != 1 {
				t.Fatalf("Resumes = %d, want 1", st.Resumes)
			}
			if got := readArtifact(t, s2, "alice", rec.ID, "result.json"); !bytes.Equal(got, golden) {
				t.Fatalf("re-completion changed served bytes\ngot:\n%s\nwant:\n%s", got, golden)
			}
		})
	}
}

// TestDrainParksRunningJobsAndRestartResumes is the graceful half of the
// durability story: drain checkpoints and parks the running job (back to
// queued, snapshot flushed), leaves queued jobs queued, and a restart on
// the same root finishes everything with the control's exact bytes.
func TestDrainParksRunningJobsAndRestartResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second control + resume runs")
	}
	spec := crashSpec(44)
	spec.Steps = 150 // long enough that the drain always lands mid-run
	golden := runControl(t, spec, 25)

	fs := checkpoint.NewMemFS()
	reg := metrics.New()
	s, err := Open("root", Options{Workers: 1, CheckpointEvery: 25, FS: fs, Metrics: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	running, err := s.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit("alice", tinySpec(45))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first job running", func() bool {
		st, err := s.Status("alice", running.ID)
		return err == nil && st.Progress != nil && st.Progress.Step >= 1
	})
	s.Drain()

	st, err := s.Status("alice", running.ID)
	if err != nil || st.State != StateQueued || st.Resumes != 1 {
		t.Fatalf("drained running job = %+v, %v; want queued with Resumes=1", st.Record, err)
	}
	if n := reg.Counter("jobs_parked_total").Value(); n != 1 {
		t.Fatalf("jobs_parked_total = %d, want 1", n)
	}
	if st, err := s.Status("alice", queued.ID); err != nil || st.State != StateQueued || st.Attempts != 0 {
		t.Fatalf("queued job after drain = %+v, %v", st.Record, err)
	}
	// The park flushed a snapshot: restart must not redo the work.
	mgr := &checkpoint.Manager{Dir: s.store.CheckpointDir(running.ID), FS: fs}
	if steps, _ := mgr.List(); len(steps) == 0 {
		t.Fatal("parked job left no snapshot")
	}

	s2, err := Open("root", Options{Workers: 1, CheckpointEvery: 25, FS: fs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	waitFor(t, "both jobs done", func() bool {
		a, errA := s2.Status("alice", running.ID)
		b, errB := s2.Status("alice", queued.ID)
		return errA == nil && errB == nil && a.State == StateDone && b.State == StateDone
	})
	if got := readArtifact(t, s2, "alice", running.ID, "result.json"); !bytes.Equal(got, golden) {
		t.Fatalf("parked-and-resumed job diverged from control\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

// TestDoneJobDropsItsSnapshots is the disk contract of a finished job: a
// done job keeps no snapshot. The process dies in the one window where it
// still has them — the done record is durable, the removal has not run —
// and recovery must delete them while serving the control's exact bytes.
// It runs on the in-memory FS and on the OS filesystem, whose directories
// the in-memory FS does not model.
func TestDoneJobDropsItsSnapshots(t *testing.T) {
	spec := crashSpec(46)
	const every = 2
	golden := runControl(t, spec, every)
	for name, open := range map[string]func(t *testing.T) (checkpoint.FS, string){
		"memfs": func(t *testing.T) (checkpoint.FS, string) { return checkpoint.NewMemFS(), "root" },
		"osfs":  func(t *testing.T) (checkpoint.FS, string) { return checkpoint.OS(), t.TempDir() },
	} {
		t.Run(name, func(t *testing.T) {
			fs, root := open(t)
			snapshots := func(s *Service, id string) []string {
				names, _ := fs.ReadDir(s.store.CheckpointDir(id))
				return names
			}

			s, err := Open(root, Options{Workers: 1, CheckpointEvery: every, FS: fs, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			s.crashAfterDone = func(string) bool { return true }
			rec, err := s.Submit("alice", spec)
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, "done record", func() bool {
				st, err := s.Status("alice", rec.ID)
				return err == nil && st.State == StateDone
			})
			s.Drain()
			if len(snapshots(s, rec.ID)) == 0 {
				t.Fatal("the crash left no snapshot behind; the window is not exercised")
			}

			s2, err := Open(root, Options{Workers: 1, CheckpointEvery: every, FS: fs, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if names := snapshots(s2, rec.ID); len(names) != 0 {
				t.Fatalf("recovery kept the done job's snapshots %v", names)
			}
			if name == "osfs" {
				if _, err := os.Stat(s2.store.CheckpointDir(rec.ID)); !os.IsNotExist(err) {
					t.Fatalf("recovery kept the done job's snapshot directory: %v", err)
				}
			}
			if got := readArtifact(t, s2, "alice", rec.ID, "result.json"); !bytes.Equal(got, golden) {
				t.Fatalf("result.json changed across the recovery\ngot:\n%s\nwant:\n%s", got, golden)
			}

			// Without a crash the runner drops the snapshots itself.
			next, err := s2.Submit("alice", spec)
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, "second job done", func() bool {
				st, err := s2.Status("alice", next.ID)
				return err == nil && st.State == StateDone
			})
			s2.Drain()
			if names := snapshots(s2, next.ID); len(names) != 0 {
				t.Fatalf("a done job kept its snapshots %v", names)
			}
		})
	}
}

// TestServeSpecSnapshotSize gates what one snapshot of a serve-shaped
// job (24 steps, 2 shards, batch 32) weighs: only what resume needs. A
// snapshot carrying every param whole weighed 22.8 MB.
func TestServeSpecSnapshotSize(t *testing.T) {
	const limit = 8 << 20
	reg := metrics.New()
	s, err := Open("root", Options{Workers: 1, FS: checkpoint.NewMemFS(), Metrics: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec, err := s.Submit("alice", Spec{Steps: 24, Shards: 2, Batch: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job done", func() bool {
		st, err := s.Status("alice", rec.ID)
		return err == nil && st.State == StateDone
	})
	if saves := reg.Counter("checkpoint_saves_total").Value(); saves == 0 {
		t.Fatal("the job wrote no snapshot")
	}
	size := reg.Gauge("checkpoint_bytes").Value()
	t.Logf("serve-spec snapshot: %.0f bytes", size)
	if size > limit {
		t.Fatalf("serve-spec snapshot is %.0f bytes, limit %d", size, limit)
	}
}
