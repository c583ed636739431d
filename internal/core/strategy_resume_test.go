package core

import (
	"strings"
	"testing"

	"h2onas/internal/checkpoint"
	"h2onas/internal/reward"
	"h2onas/internal/space"
)

// strategyFactories builds a fresh instance of each battery member —
// Strategy instances are stateful and belong to a single Search call, so
// the golden run and every resumed run get their own. The nil entry is
// the default REINFORCE path. Sizes are chosen so every strategy reaches
// its interesting regime inside ckptConfig's 7 real steps: evolution's
// population fills after two steps, halving's 14-eval budget covers a
// 4→2→1 rung plan.
func strategyFactories() map[string]func(sp *space.Space) Strategy {
	return map[string]func(sp *space.Space) Strategy{
		"reinforce": func(sp *space.Space) Strategy { return nil },
		"random":    func(sp *space.Space) Strategy { return NewRandomSearch(sp) },
		"evolution": func(sp *space.Space) Strategy {
			return NewEvolution(sp, EvolutionOpts{Population: 4, Tournament: 2})
		},
		"halving": func(sp *space.Space) Strategy {
			sh, err := NewSuccessiveHalving(sp, HalvingOpts{Cohort: 4, Eta: 2, Budget: 14})
			if err != nil {
				panic(err)
			}
			return sh
		},
	}
}

// TestResumeEveryStrategyFromEverySnapshot is the crash-at-every-step
// sweep for the whole battery: each strategy runs a golden pass that
// checkpoints after every step, then every snapshot is resumed by a
// fresh searcher with a fresh strategy instance, which must reproduce
// the golden run's final architecture and reward history bit-for-bit.
// This is what makes StateBytes/RestoreState a contract rather than a
// convention — any mutable strategy field left out of the blob shows up
// here as a diverged trajectory. Under -short only the first, middle
// and last mid-run snapshots are swept.
func TestResumeEveryStrategyFromEverySnapshot(t *testing.T) {
	for name, mk := range strategyFactories() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			fs := checkpoint.NewMemFS()
			cfg := ckptConfig(fs)
			s, _ := testSearcher(t, reward.ReLU, 1.0, 21)
			cfg.Strategy = mk(s.DS.Space)
			golden, err := s.Search(cfg)
			if err != nil {
				t.Fatal(err)
			}

			mgr := &checkpoint.Manager{Dir: cfg.CheckpointDir, FS: fs}
			steps, err := mgr.List()
			if err != nil {
				t.Fatal(err)
			}
			total := int64(cfg.WarmupSteps + cfg.Steps)
			if len(steps) != int(total) || steps[len(steps)-1] != total {
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
				rcfg := resumeOnlyFrom(t, cfg, snap)
				rs, _ := testSearcher(t, reward.ReLU, 1.0, 21)
				rcfg.Strategy = mk(rs.DS.Space)
				resumed, err := rs.Search(rcfg)
				if err != nil {
					t.Fatalf("resume from step %d: %v", k, err)
				}
				if resumed.ResumedFrom != k {
					t.Fatalf("ResumedFrom = %d, want %d", resumed.ResumedFrom, k)
				}
				requireSameBest(t, golden.Best, resumed.Best)
				if k < total {
					requireSameHistory(t, golden.History, resumed.History)
				}
			}
		})
	}
}

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
