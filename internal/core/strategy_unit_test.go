package core

import (
	"bytes"
	"slices"
	"testing"

	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

// --- PlanRungs: the budget-accounting invariant ----------------------

func TestPlanRungsTable(t *testing.T) {
	cases := []struct {
		name                string
		budget, cohort, eta int
		want                []Rung
	}{
		{
			// Minimum budget: one eval per survivor, nothing left over.
			name: "exact-minimum", budget: 7, cohort: 4, eta: 2,
			want: []Rung{{4, 4}, {2, 2}, {1, 1}},
		},
		{
			// Leftover 5 over 3 rungs: each +1, earliest two absorb the rest.
			name: "remainder-goes-early", budget: 12, cohort: 4, eta: 2,
			want: []Rung{{4, 6}, {2, 4}, {1, 2}},
		},
		{
			name: "eta-3", budget: 13, cohort: 9, eta: 3,
			want: []Rung{{9, 9}, {3, 3}, {1, 1}},
		},
		{
			// 8/3 = 2 truncates; the ladder still reaches 1.
			name: "non-divisible-cohort", budget: 11, cohort: 8, eta: 3,
			want: []Rung{{8, 8}, {2, 2}, {1, 1}},
		},
		{
			name: "cohort-2", budget: 10, cohort: 2, eta: 2,
			want: []Rung{{2, 6}, {1, 4}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := PlanRungs(tc.budget, tc.cohort, tc.eta)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("rungs %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("rung %d = %+v, want %+v (full: %v vs %v)", i, got[i], tc.want[i], got, tc.want)
				}
			}
		})
	}
}

func TestPlanRungsErrors(t *testing.T) {
	cases := []struct {
		name                string
		budget, cohort, eta int
	}{
		{"cohort-too-small", 100, 1, 2},
		{"eta-too-small", 100, 4, 1},
		{"budget-below-minimum", 6, 4, 2}, // minimum is 4+2+1 = 7
		{"zero-budget", 0, 2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := PlanRungs(tc.budget, tc.cohort, tc.eta); err == nil {
				t.Fatalf("PlanRungs(%d, %d, %d) accepted", tc.budget, tc.cohort, tc.eta)
			}
		})
	}
}

// TestPlanRungsBudgetExactness sweeps a grid of plans and checks the
// structural invariants on every one: evaluations sum to the budget
// EXACTLY (no eval silently dropped or invented), survivors shrink by
// eta down to 1, and every rung affords each survivor at least one
// evaluation.
func TestPlanRungsBudgetExactness(t *testing.T) {
	for _, cohort := range []int{2, 3, 4, 5, 8, 16} {
		for _, eta := range []int{2, 3, 4} {
			min, err := PlanRungs(1<<30, cohort, eta) // a huge budget always plans
			if err != nil {
				t.Fatal(err)
			}
			floor := 0
			for _, r := range min {
				floor += r.Survivors
			}
			for budget := floor; budget < floor+40; budget++ {
				rungs, err := PlanRungs(budget, cohort, eta)
				if err != nil {
					t.Fatalf("PlanRungs(%d, %d, %d): %v", budget, cohort, eta, err)
				}
				sum := 0
				for i, r := range rungs {
					sum += r.Evals
					if r.Evals < r.Survivors {
						t.Fatalf("plan(%d,%d,%d) rung %d: %d evals for %d survivors", budget, cohort, eta, i, r.Evals, r.Survivors)
					}
					if i > 0 {
						prev := rungs[i-1].Survivors
						want := prev / eta
						if want < 1 {
							want = 1
						}
						if r.Survivors != want {
							t.Fatalf("plan(%d,%d,%d) rung %d: %d survivors after %d", budget, cohort, eta, i, r.Survivors, prev)
						}
					}
				}
				if rungs[len(rungs)-1].Survivors != 1 {
					t.Fatalf("plan(%d,%d,%d) does not end at a single survivor: %v", budget, cohort, eta, rungs)
				}
				if sum != budget {
					t.Fatalf("plan(%d,%d,%d) spends %d evals, budget is %d: %v", budget, cohort, eta, sum, budget, rungs)
				}
			}
		}
	}
}

// TestHalvingPromotionKeepsBestByMean drives a full rung by hand and
// checks the cull keeps the highest-mean candidates, best first.
func TestHalvingPromotionKeepsBestByMean(t *testing.T) {
	sp := multiTrialSpace()
	sh, err := NewSuccessiveHalving(sp, HalvingOpts{Cohort: 4, Eta: 2, Budget: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(5)
	// Seed the cohort (first non-warmup Sample draws all four), then
	// collect the distinct candidates handed out round-robin.
	var round []space.Assignment
	for i := 0; i < 4; i++ {
		round = append(round, sh.Sample(rng, false))
	}
	// Credit rewards making candidate 2 best, then 0; 1 and 3 get culled.
	rewards := []float64{0.4, 0.1, 0.9, 0.2}
	sh.Update(round, rewards)
	if got := sh.rungs; got[1].Survivors != 2 {
		t.Fatalf("rung plan %v, want 2 survivors at rung 1", got)
	}
	if best := sh.Best(); !slices.Equal(best, round[2]) {
		t.Fatalf("Best = %v, want the 0.9-mean candidate %v", best, round[2])
	}
	// The next round-robin pass serves exactly the two survivors, in
	// ranked order (0.9 first, 0.4 second), then wraps.
	for i, want := range []space.Assignment{round[2], round[0], round[2]} {
		got := sh.Sample(rng, false)
		if !slices.Equal(got, want) {
			t.Fatalf("post-cull sample %d = %v, want %v", i, got, want)
		}
	}
}

// --- Evolution: aging eviction and tournament determinism ------------

// synth builds a constant assignment for population-mechanics tests.
func synth(sp *space.Space, v int) space.Assignment {
	a := make(space.Assignment, len(sp.Decisions))
	for i := range a {
		a[i] = v % sp.Decisions[i].Arity()
	}
	return a
}

func TestEvolutionAgingEviction(t *testing.T) {
	sp := multiTrialSpace()
	e := NewEvolution(sp, EvolutionOpts{Population: 3, Tournament: 2})
	// Admit five individuals one Update at a time; rewards make the FIRST
	// the best ever, so if eviction were reward-based (not age-based) it
	// would survive. It must not: regularized evolution retires strictly
	// by age.
	rewards := []float64{5, 1, 2, 3, 4}
	for i, rw := range rewards {
		e.Update([]space.Assignment{synth(sp, i)}, []float64{rw})
	}
	pop := e.pop
	if len(pop) != 3 {
		t.Fatalf("population size %d, want 3", len(pop))
	}
	for i, want := range []int{2, 3, 4} {
		if !slices.Equal(pop[i].a, synth(sp, want)) {
			t.Fatalf("pop[%d] = %v, want individual %d: FIFO aging violated", i, pop[i].a, want)
		}
	}
	// The champion was evicted from the population but stays the report.
	if best := e.Best(); !slices.Equal(best, synth(sp, 0)) {
		t.Fatalf("Best = %v, want the evicted champion %v", best, synth(sp, 0))
	}
}

func TestEvolutionAgingEvictionTable(t *testing.T) {
	sp := multiTrialSpace()
	cases := []struct {
		name     string
		popSize  int
		admit    int
		wantLive []int // surviving individual indices, oldest first
	}{
		{"under-capacity", 4, 3, []int{0, 1, 2}},
		{"at-capacity", 3, 3, []int{0, 1, 2}},
		{"single-eviction", 3, 4, []int{1, 2, 3}},
		{"rolling-window", 2, 6, []int{4, 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEvolution(sp, EvolutionOpts{Population: tc.popSize, Tournament: 2})
			for i := 0; i < tc.admit; i++ {
				e.Update([]space.Assignment{synth(sp, i)}, []float64{float64(i)})
			}
			pop := e.pop
			if len(pop) != len(tc.wantLive) {
				t.Fatalf("population size %d, want %d", len(pop), len(tc.wantLive))
			}
			for i, want := range tc.wantLive {
				if !slices.Equal(pop[i].a, synth(sp, want)) {
					t.Fatalf("pop[%d] = %v, want individual %d", i, pop[i].a, want)
				}
			}
		})
	}
}

// TestEvolutionTournamentDeterminism pins that breeding is a pure
// function of (population state, RNG state): two instances with the same
// population and same-seeded RNGs emit identical children, and a third
// instance restored from serialized state joins them bit-for-bit.
func TestEvolutionTournamentDeterminism(t *testing.T) {
	sp := multiTrialSpace()
	mk := func() *Evolution {
		e := NewEvolution(sp, EvolutionOpts{Population: 6, Tournament: 3})
		for i := 0; i < 6; i++ {
			e.Update([]space.Assignment{synth(sp, i)}, []float64{float64(i % 4)})
		}
		return e
	}
	a, b := mk(), mk()
	restored := NewEvolution(sp, EvolutionOpts{Population: 6, Tournament: 3})
	if err := restored.RestoreState(a.StateBytes()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.StateBytes(), restored.StateBytes()) {
		t.Fatal("state blob did not round-trip")
	}
	rngA, rngB, rngR := tensor.NewRNG(9), tensor.NewRNG(9), tensor.NewRNG(9)
	for i := 0; i < 32; i++ {
		ca, cb, cr := a.Sample(rngA, false), b.Sample(rngB, false), restored.Sample(rngR, false)
		if !slices.Equal(ca, cb) || !slices.Equal(ca, cr) {
			t.Fatalf("child %d diverged: %v vs %v vs restored %v", i, ca, cb, cr)
		}
	}
}

// TestEvolutionTournamentPrefersReward pins the selection rule: the
// higher reward wins every tournament it appears in, ties keeping the
// earlier draw. A two-individual population with Tournament=2 makes the
// outcome enumerable: the low-reward parent wins only when both draws
// land on it, with probability 1/4.
func TestEvolutionTournamentPrefersReward(t *testing.T) {
	sp := multiTrialSpace()
	e := NewEvolution(sp, EvolutionOpts{Population: 2, Tournament: 2})
	champion, loser := synth(sp, 1), synth(sp, 2)
	e.Update([]space.Assignment{loser, champion}, []float64{0.1, 9.9})
	rng := tensor.NewRNG(3)
	fromChampion := 0
	for i := 0; i < 200; i++ {
		switch parent := e.tournament(rng); {
		case slices.Equal(parent, champion):
			fromChampion++
		case !slices.Equal(parent, loser):
			t.Fatalf("tournament %d chose %v, neither individual", i, parent)
		}
	}
	// 200 draws put the champion's share far above the 3/4
	// expectation's lower tail.
	if fromChampion <= 120 {
		t.Fatalf("champion won %d/200 tournaments; selection is not preferring reward", fromChampion)
	}
	if best := e.Best(); !slices.Equal(best, champion) {
		t.Fatalf("Best = %v, want champion %v", best, champion)
	}
}

// --- State round-trips for the remaining battery members -------------

func TestStrategyStateRoundTrips(t *testing.T) {
	sp := multiTrialSpace()
	rng := tensor.NewRNG(11)
	strategies := []Strategy{
		NewRandomSearch(sp),
		NewEvolution(sp, EvolutionOpts{Population: 3, Tournament: 2}),
		mustHalving(sp, HalvingOpts{Cohort: 2, Eta: 2, Budget: 5}),
	}
	fresh := []func() Strategy{
		func() Strategy { return NewRandomSearch(sp) },
		func() Strategy { return NewEvolution(sp, EvolutionOpts{Population: 3, Tournament: 2}) },
		func() Strategy { return mustHalving(sp, HalvingOpts{Cohort: 2, Eta: 2, Budget: 5}) },
	}
	for i, s := range strategies {
		// Drive some state into the strategy.
		for step := 0; step < 4; step++ {
			a := s.Sample(rng, false)
			s.Update([]space.Assignment{a}, []float64{float64(step) * 0.25})
		}
		blob := s.StateBytes()
		r := fresh[i]()
		if err := r.RestoreState(blob); err != nil {
			t.Fatalf("%s: restore: %v", s.Name(), err)
		}
		if !bytes.Equal(blob, r.StateBytes()) {
			t.Fatalf("%s: state blob is not a fixed point of restore", s.Name())
		}
		if !slices.Equal(s.Best(), r.Best()) {
			t.Fatalf("%s: Best diverged after restore: %v vs %v", s.Name(), s.Best(), r.Best())
		}
	}
}

func TestStrategyStateRejectsGarbage(t *testing.T) {
	sp := multiTrialSpace()
	for _, s := range []Strategy{
		NewRandomSearch(sp),
		NewEvolution(sp, EvolutionOpts{}),
		mustHalving(sp, HalvingOpts{Cohort: 2, Eta: 2, Budget: 5}),
	} {
		for _, blob := range [][]byte{
			{0x01},
			bytes.Repeat([]byte{0xff}, 64),
			nil,
		} {
			if err := s.RestoreState(blob); err == nil && blob != nil {
				t.Fatalf("%s accepted garbage blob %x", s.Name(), blob)
			}
		}
	}
}

func mustHalving(sp *space.Space, opts HalvingOpts) *SuccessiveHalving {
	sh, err := NewSuccessiveHalving(sp, opts)
	if err != nil {
		panic(err)
	}
	return sh
}
