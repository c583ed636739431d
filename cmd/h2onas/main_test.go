package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests exec this binary as the h2onas command: with
// H2ONAS_TEST_EXEC set the process runs main() on its arguments instead
// of the test suite, so os.Exit paths and panics are observable.
func TestMain(m *testing.M) {
	if os.Getenv("H2ONAS_TEST_EXEC") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func execMain(t *testing.T, args ...string) (exit int, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "H2ONAS_TEST_EXEC=1")
	var buf bytes.Buffer
	cmd.Stderr = &buf
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("exec h2onas %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), buf.String()
}

// TestLatencyFlagRejectedAsUsageError: a non-positive or NaN -latency is
// outside input, so every domain must answer it with the usage error —
// the cnn, vit and nlp domains used to die in reward.MustNew's panic.
func TestLatencyFlagRejectedAsUsageError(t *testing.T) {
	for _, domain := range []string{"dlrm", "cnn", "vit", "nlp"} {
		for _, latency := range []string{"0", "-0.5", "NaN"} {
			exit, stderr := execMain(t, "-domain", domain, "-latency", latency, "-steps", "1", "-shards", "2")
			if exit != 2 {
				t.Errorf("-domain %s -latency %s: exit %d, want 2\n%s", domain, latency, exit, stderr)
			}
			if !strings.HasPrefix(stderr, "-latency "+latency+":") || !strings.Contains(stderr, "Usage of") {
				t.Errorf("-domain %s -latency %s: stderr is not the usage error:\n%s", domain, latency, stderr)
			}
			if strings.Contains(stderr, "panic:") || strings.Contains(stderr, "goroutine 1 [") {
				t.Errorf("-domain %s -latency %s: died with a goroutine trace:\n%s", domain, latency, stderr)
			}
		}
	}
}

// TestNegativeWarmupRejected: -warmup -1 used to run one step fewer than
// asked, and -warmup -5 with -steps 3 ran none and exited 0 printing an
// untrained "final architecture". Both weight-sharing domains refuse it.
func TestNegativeWarmupRejected(t *testing.T) {
	for _, domain := range []string{"dlrm", "nlp"} {
		for _, warmup := range []string{"-1", "-5"} {
			exit, stderr := execMain(t, "-domain", domain, "-steps", "3", "-shards", "2", "-warmup", warmup)
			if exit != 1 || !strings.Contains(stderr, "negative WarmupSteps "+warmup) {
				t.Errorf("-domain %s -warmup %s: exit %d, want 1 naming the negative warm-up\n%s", domain, warmup, exit, stderr)
			}
		}
	}
}

// TestFailShardOutsideRunRejected: a -fail-shard index the run does not
// have used to inject nothing, silently; it is a usage error.
func TestFailShardOutsideRunRejected(t *testing.T) {
	exit, stderr := execMain(t, "-domain", "dlrm", "-steps", "1", "-shards", "2", "-warmup", "0", "-fail-shard", "9:0")
	if exit != 2 || !strings.HasPrefix(stderr, "-fail-shard 9:") || !strings.Contains(stderr, "Usage of") {
		t.Errorf("-fail-shard 9:0 on 2 shards: exit %d, want the usage error\n%s", exit, stderr)
	}
	if exit, stderr := execMain(t, "-domain", "dlrm", "-steps", "2", "-shards", "2", "-warmup", "0", "-batch", "8", "-fail-shard", "1:1"); exit != 0 {
		t.Errorf("-fail-shard 1:1 on 2 shards: exit %d, want 0\n%s", exit, stderr)
	}
}

// TestResumedResultDocumentEqualsUninterrupted: -result-out is the
// deterministic slice of the result, so a run resumed from a mid-run
// snapshot must write the bytes the uninterrupted run wrote (the file
// used to carry resumed_from and differ).
func TestResumedResultDocumentEqualsUninterrupted(t *testing.T) {
	dir := t.TempDir()
	a, b, ckpt := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "ckpt")
	run := []string{"-domain", "dlrm", "-steps", "6", "-warmup", "2", "-shards", "2", "-batch", "8", "-no-metrics",
		"-checkpoint-dir", ckpt, "-checkpoint-every", "3"}
	if exit, stderr := execMain(t, append(run, "-result-out", a)...); exit != 0 {
		t.Fatalf("checkpointing run: exit %d\n%s", exit, stderr)
	}
	// The newest snapshot is step 6 of 8: the second run replays the tail.
	exit, stderr := execMain(t, append(run, "-resume", "-result-out", b)...)
	if exit != 0 || !strings.Contains(stderr, "resuming from") {
		t.Fatalf("resumed run: exit %d, want 0 and a resume notice\n%s", exit, stderr)
	}
	docA, errA := os.ReadFile(a)
	docB, errB := os.ReadFile(b)
	if errA != nil || errB != nil || !bytes.Equal(docA, docB) {
		t.Fatalf("resumed -result-out differs from the uninterrupted run's (%v, %v):\n%s\nvs\n%s", errA, errB, docA, docB)
	}
}

// TestSecondSpaceThroughTheOneShotPath: the flags the shared engine serves
// work for -domain nlp as for dlrm, and what the transformer search lacks
// (a DLRM shard fleet) is refused by the engine, as an error line.
func TestSecondSpaceThroughTheOneShotPath(t *testing.T) {
	doc := filepath.Join(t.TempDir(), "f.json")
	exit, stderr := execMain(t, "-domain", "nlp", "-steps", "2", "-warmup", "0", "-shards", "2", "-batch", "8", "-fail-shard", "1:1", "-result-out", doc)
	if data, err := os.ReadFile(doc); exit != 0 || err != nil || !bytes.Contains(data, []byte(`"shard_first_drop"`)) {
		t.Errorf("-domain nlp -fail-shard 1:1 -result-out: exit %d, document %v\n%s", exit, err, stderr)
	}
	exit, stderr = execMain(t, "-domain", "nlp", "-steps", "2", "-workers", "127.0.0.1:1")
	if exit != 1 || !strings.Contains(stderr, "core: Config.Transport *shardrpc.Transport cannot run") || strings.Contains(stderr, "goroutine 1 [") {
		t.Errorf("-domain nlp -workers: exit %d, want 1 with the engine's refusal and no trace\n%s", exit, stderr)
	}
}
