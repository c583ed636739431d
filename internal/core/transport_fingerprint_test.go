package core

import (
	"strings"
	"testing"

	"h2onas/internal/checkpoint"
	"h2onas/internal/datapipe"
	"h2onas/internal/nn"
	"h2onas/internal/reward"
	"h2onas/internal/space"
)

// stubTransport is a ShardTransport whose only job is to carry a
// membership string into the checkpoint fingerprint; resume validation
// fails before any step runs, so RunStep must never be reached.
type stubTransport struct{ membership string }

// StubTransport exposes the stub to the external test package.
func StubTransport(membership string) ShardTransport { return &stubTransport{membership} }

func (s *stubTransport) Bind(ShardBinding) error { return nil }
func (s *stubTransport) RunStep(int, []space.Assignment, []*datapipe.Batch, []ShardOutcome) {
	panic("stubTransport: RunStep reached")
}
func (s *stubTransport) WantsWeightSync() bool             { return false }
func (s *stubTransport) PushWeights([]nn.ParamTouch) error { return nil }
func (s *stubTransport) Membership() string                { return s.membership }
func (s *stubTransport) Close() error                      { return nil }

// TestResumeRefusesChangedFleet: a checkpoint written under one transport
// membership must not silently resume under another — a multi-node resume
// with a different worker fleet (or a transport swap) changes which shard
// runs where, and the fingerprint must catch it with a descriptive error.
func TestResumeRefusesChangedFleet(t *testing.T) {
	fs := checkpoint.NewMemFS()
	cfg := ckptConfig(fs)
	s, _ := testSearcher(t, reward.ReLU, 1.0, 33)
	if _, err := s.Search(cfg); err != nil {
		t.Fatal(err)
	}

	resume := ckptConfig(fs)
	resume.Resume = true
	resume.Transport = &stubTransport{membership: "tcp[10.0.0.1:7070,10.0.0.2:7070,10.0.0.3:7070]"}
	s2, _ := testSearcher(t, reward.ReLU, 1.0, 33)
	_, err := s2.Search(resume)
	if err == nil {
		t.Fatal("resume accepted a checkpoint written under a different transport membership")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("error %q does not mention the fingerprint", err)
	}
	if !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("error %q is not the descriptive mismatch message", err)
	}
}

// TestResumeRefusesChangedShardCount: shard membership is part of the
// fingerprint even in-process — the surviving-shard trajectory depends
// on the shard count, so resuming a 3-shard checkpoint with 4 shards
// must fail loudly.
func TestResumeRefusesChangedShardCount(t *testing.T) {
	fs := checkpoint.NewMemFS()
	cfg := ckptConfig(fs)
	s, _ := testSearcher(t, reward.ReLU, 1.0, 34)
	if _, err := s.Search(cfg); err != nil {
		t.Fatal(err)
	}

	resume := ckptConfig(fs)
	resume.Resume = true
	resume.Shards = cfg.Shards + 1
	s2, _ := testSearcher(t, reward.ReLU, 1.0, 34)
	_, err := s2.Search(resume)
	if err == nil {
		t.Fatal("resume accepted a checkpoint written with a different shard count")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("error %q does not mention the fingerprint", err)
	}
}

// TestResumeAcceptsSameMembership: the membership guard must not refuse a
// legitimate same-fleet resume.
func TestResumeAcceptsSameMembership(t *testing.T) {
	fs := checkpoint.NewMemFS()
	cfg := ckptConfig(fs)
	s, _ := testSearcher(t, reward.ReLU, 1.0, 35)
	golden, err := s.Search(cfg)
	if err != nil {
		t.Fatal(err)
	}

	resume := ckptConfig(fs)
	resume.Resume = true
	resume.Clock = &FrozenClock{}
	s2, _ := testSearcher(t, reward.ReLU, 1.0, 35)
	resumed, err := s2.Search(resume)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ResumedFrom == 0 {
		t.Fatal("run did not resume from the checkpoint")
	}
	requireSameBest(t, golden.Best, resumed.Best)
}
