package core

import (
	"reflect"
	"testing"

	"h2onas/internal/reward"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

// quadraticSearcher has a unique known optimum: quality peaks when every
// decision picks its middle option; perf is constant (no penalty).
func quadraticSearcher(sp *space.Space) *AnalyticSearcher {
	return &AnalyticSearcher{
		Space: sp,
		Quality: func(a space.Assignment) float64 {
			var q float64
			for i, d := range sp.Decisions {
				mid := float64(d.Arity()-1) / 2
				diff := float64(a[i]) - mid
				q -= diff * diff
			}
			return q
		},
		Perf:   func(space.Assignment) []float64 { return []float64{1} },
		Reward: reward.MustNew(reward.ReLU, reward.Objective{Name: "t", Target: 10, Beta: -1}),
	}
}

func multiTrialSpace() *space.Space {
	return space.NewSpace("mt",
		space.NewDecision("a", 0, 1, 2, 3, 4),
		space.NewDecision("b", 0, 1, 2, 3, 4),
		space.NewDecision("c", 0, 1, 2, 3, 4),
		space.NewDecision("d", 0, 1, 2, 3, 4),
	)
}

// multiTrial is a multi-trial run: one evaluation per step.
func multiTrial(t *testing.T, s *AnalyticSearcher, strat Strategy, trials int, seed uint64) *Outcome {
	t.Helper()
	res, err := s.Search(Config{Shards: 1, Steps: trials, Seed: seed, Strategy: strat})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRandomSearchFindsGoodCandidate(t *testing.T) {
	sp := multiTrialSpace()
	res := multiTrial(t, quadraticSearcher(sp), NewRandomSearch(sp), 400, 1)
	if len(res.Candidates) != 400 {
		t.Fatalf("candidates %d", len(res.Candidates))
	}
	// 5^4 = 625 options; 400 uniform trials should land close to optimal
	// (quality 0 at all-middle).
	if res.FinalQuality < -2 {
		t.Fatalf("random search best quality %v too poor", res.FinalQuality)
	}
}

func TestEvolutionBeatsRandomAtEqualBudget(t *testing.T) {
	sp := space.NewSpace("big",
		space.NewDecision("a", 0, 1, 2, 3, 4, 5, 6),
		space.NewDecision("b", 0, 1, 2, 3, 4, 5, 6),
		space.NewDecision("c", 0, 1, 2, 3, 4, 5, 6),
		space.NewDecision("d", 0, 1, 2, 3, 4, 5, 6),
		space.NewDecision("e", 0, 1, 2, 3, 4, 5, 6),
		space.NewDecision("f", 0, 1, 2, 3, 4, 5, 6),
		space.NewDecision("g", 0, 1, 2, 3, 4, 5, 6),
		space.NewDecision("h", 0, 1, 2, 3, 4, 5, 6),
	)
	s := quadraticSearcher(sp)
	const trials = 300
	var evoWins int
	for seed := uint64(1); seed <= 5; seed++ {
		rnd := multiTrial(t, s, NewRandomSearch(sp), trials, seed)
		evo := multiTrial(t, s, NewEvolution(sp, EvolutionOpts{}), trials, seed)
		if evo.FinalQuality > rnd.FinalQuality {
			evoWins++
		}
	}
	// On a smooth landscape in a 7^8 space, evolution should win most
	// seeds at equal budget.
	if evoWins < 3 {
		t.Fatalf("evolution won only %d/5 seeds against random search", evoWins)
	}
}

func TestEvolutionPopulationIsFIFO(t *testing.T) {
	sp := multiTrialSpace()
	evo := NewEvolution(sp, EvolutionOpts{Population: 8, Tournament: 4})
	res := multiTrial(t, quadraticSearcher(sp), evo, 60, 3)
	if len(res.Candidates) != 60 {
		t.Fatalf("candidates %d, want 60 (population + children)", len(res.Candidates))
	}
	if err := sp.Validate(res.Best); err != nil {
		t.Fatal(err)
	}
	// Aging: the live population is exactly the 8 newest evaluations,
	// oldest first — every earlier individual retired, champion or not.
	pop := evo.Population()
	if len(pop) != 8 {
		t.Fatalf("live population %d, want 8", len(pop))
	}
	for i, a := range pop {
		if !assignmentsEqual(a, res.Candidates[52+i].Assignment) {
			t.Fatalf("population[%d] = %v, want trial %d's %v", i, a, 52+i, res.Candidates[52+i].Assignment)
		}
	}
}

func TestAnalyticSearchValidates(t *testing.T) {
	sp := multiTrialSpace()
	s := quadraticSearcher(sp)
	if _, err := (&AnalyticSearcher{Space: sp}).Search(Config{Shards: 1, Steps: 100, Strategy: NewEvolution(sp, EvolutionOpts{})}); err == nil {
		t.Fatal("incomplete evaluator must error")
	}
	if _, err := s.Search(Config{Shards: 1, Steps: 0, Strategy: NewRandomSearch(sp)}); err == nil {
		t.Fatal("zero trials must error")
	}
	// Fewer trials than the population is no longer an error: the
	// population never fills, so every trial is a uniform draw.
	res := multiTrial(t, s, NewEvolution(sp, EvolutionOpts{Population: 50}), 10, 1)
	rnd := multiTrial(t, s, NewRandomSearch(sp), 10, 1)
	for i := range res.Candidates {
		if !assignmentsEqual(res.Candidates[i].Assignment, rnd.Candidates[i].Assignment) {
			t.Fatalf("trial %d of an unfilled population is not the uniform draw", i)
		}
	}
}

func TestMutateChangesAtLeastOneDecision(t *testing.T) {
	sp := multiTrialSpace()
	rng := tensor.NewRNG(99)
	a := space.Assignment{2, 2, 2, 2}
	for i := 0; i < 50; i++ {
		child := mutate(sp, a, 0.01, rng) // tiny rate still forces ≥1 change
		if assignmentsEqual(child, a) {
			t.Fatal("mutation produced an identical child")
		}
		if err := sp.Validate(child); err != nil {
			t.Fatal(err)
		}
	}
	// The parent must not be modified.
	for j, v := range a {
		if v != 2 {
			t.Fatalf("parent mutated at %d", j)
		}
	}
}

func TestRLBeatsRandomOnStructuredLandscape(t *testing.T) {
	// The default REINFORCE rule should also beat random search at equal
	// evaluation budget on a smooth landscape — the taxonomy's claim that
	// learned search outperforms undirected sampling.
	sp := multiTrialSpace()
	s := quadraticSearcher(sp)
	res, err := s.Search(Config{Shards: 4, Steps: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rnd := multiTrial(t, s, NewRandomSearch(sp), 400, 2)
	if res.FinalQuality < rnd.FinalQuality-0.5 {
		t.Fatalf("RL (%v) should be competitive with random (%v) at equal budget",
			res.FinalQuality, rnd.FinalQuality)
	}
	// And it must have essentially solved the landscape.
	if res.FinalQuality < -1.01 {
		t.Fatalf("RL best quality %v, want near 0", res.FinalQuality)
	}
}

// TestAnalyticMaxCandidatesBoundsResult: Config.MaxCandidates bounds the
// analytic loop's candidates as it bounds the engine's — the newest N, in
// arrival order — and leaves the trajectory alone.
func TestAnalyticMaxCandidatesBoundsResult(t *testing.T) {
	sp := multiTrialSpace()
	cfg := Config{Shards: 3, Steps: 9, Seed: 4}
	full, err := quadraticSearcher(sp).Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxCandidates = 7
	bounded, err := quadraticSearcher(sp).Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Candidates) != cfg.Shards*cfg.Steps {
		t.Fatalf("unbounded run kept %d candidates, want %d", len(full.Candidates), cfg.Shards*cfg.Steps)
	}
	tail := full.Candidates[len(full.Candidates)-cfg.MaxCandidates:]
	if !reflect.DeepEqual(bounded.Candidates, tail) {
		t.Fatalf("bounded candidates\n%+v\nwant the unbounded run's newest %d\n%+v", bounded.Candidates, cfg.MaxCandidates, tail)
	}
	if !reflect.DeepEqual(bounded.History, full.History) || !sameAssignment(bounded.Best, full.Best) {
		t.Fatal("bounding the candidates moved the trajectory")
	}
}
