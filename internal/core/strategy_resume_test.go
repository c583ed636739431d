package core

import (
	"strings"
	"testing"

	"h2onas/internal/checkpoint"
	"h2onas/internal/reward"
)

// TestResumeRejectsStrategyMismatch pins the fingerprint-v3 guarantee:
// a snapshot written under one strategy must be refused — with an error
// naming both strategies — when resumed under another, rather than
// feeding one strategy's state blob to a different decoder.
func TestResumeRejectsStrategyMismatch(t *testing.T) {
	fs := checkpoint.NewMemFS()
	cfg := ckptConfig(fs)
	s, _ := testSearcher(t, reward.ReLU, 1.0, 77)
	cfg.Strategy = NewRandomSearch(s.DS.Space)
	if _, err := s.Search(cfg); err != nil {
		t.Fatal(err)
	}

	rcfg := cfg
	rcfg.Resume = true
	rcfg.CheckpointEvery = 0
	rs, _ := testSearcher(t, reward.ReLU, 1.0, 77)
	rcfg.Strategy = NewEvolution(rs.DS.Space, EvolutionOpts{})
	_, err := rs.Search(rcfg)
	if err == nil {
		t.Fatal("resume across a strategy change accepted")
	}
	for _, want := range []string{"random", "evolution", "strategy"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}

	// Control: the matching strategy resumes the same snapshot cleanly,
	// so the rejection above is the strategy check, not something else.
	rcfg2 := cfg
	rcfg2.Resume = true
	rcfg2.CheckpointEvery = 0
	rs2, _ := testSearcher(t, reward.ReLU, 1.0, 77)
	rcfg2.Strategy = NewRandomSearch(rs2.DS.Space)
	if _, err := rs2.Search(rcfg2); err != nil {
		t.Fatalf("matching strategy was refused: %v", err)
	}
}
