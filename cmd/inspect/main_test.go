package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests exec this binary as the inspect command: with
// H2ONAS_TEST_EXEC set the process runs main() on its arguments instead
// of the test suite, so os.Exit paths and panics are observable.
func TestMain(m *testing.M) {
	if os.Getenv("H2ONAS_TEST_EXEC") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func execMain(t *testing.T, args ...string) (exit int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "H2ONAS_TEST_EXEC=1")
	var out, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errBuf
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("exec inspect %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), out.String(), errBuf.String()
}

// TestModelNamesNeverPanic: -model is outside input. inspect used to
// resolve it with a loose prefix scan of its own, so "efficientnet-b5xyz"
// silently inspected B5 and "coatnet-9" died in the zoo constructor's
// panic with a goroutine trace. It now shares models.Lookup with
// cmd/serve; the same table runs there and in internal/models.
func TestModelNamesNeverPanic(t *testing.T) {
	for _, name := range []string{"coatnet-9", "coatnet--1", "efficientnet-b5xyz", "efficientnet-b05", "dlrm-x"} {
		exit, _, stderr := execMain(t, "-model", name)
		if exit != 1 {
			t.Errorf("-model %s: exit %d, want 1\n%s", name, exit, stderr)
		}
		if strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, name) {
			t.Errorf("-model %s: stderr is not a one-line error naming the model:\n%s", name, stderr)
		}
		if strings.Contains(stderr, "panic:") || strings.Contains(stderr, "goroutine") {
			t.Errorf("-model %s: died with a goroutine trace:\n%s", name, stderr)
		}
	}
	for _, name := range []string{"coatnet-5", "efficientnet-hb7", "dlrm-h"} {
		exit, stdout, stderr := execMain(t, "-model", name)
		if exit != 0 || !strings.Contains(stdout, "roofline on") {
			t.Errorf("-model %s: exit %d, want 0 and a profile\nstdout: %s\nstderr: %s", name, exit, stdout, stderr)
		}
	}
}

// TestUnknownChipIsAnError pins the shared -chip/-chip-file resolution.
func TestUnknownChipIsAnError(t *testing.T) {
	if exit, _, stderr := execMain(t, "-chip", "tpu99"); exit != 1 || !strings.Contains(stderr, `unknown chip "tpu99"`) {
		t.Errorf("-chip tpu99: exit %d, stderr %q", exit, stderr)
	}
	if exit, _, stderr := execMain(t, "-chip-file", "/no/such/chip.json"); exit != 1 || stderr == "" {
		t.Errorf("-chip-file on a missing file: exit %d, stderr %q", exit, stderr)
	}
}
