package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"h2onas/internal/controller"
	"h2onas/internal/hwsim"
	"h2onas/internal/reward"
	"h2onas/internal/space"
)

// analyticRun is one search rule's complete analytic trajectory: every
// evaluated candidate and the chosen architecture, floats as %016x of
// math.Float64bits (bit identity, like goldenStep).
type analyticRun struct {
	Rule string `json:"rule"`
	// Candidates are "step [assignment] q r [perf…]" lines.
	Candidates []string `json:"candidates"`
	// History is "step mean_reward mean_q entropy confidence"; recorded
	// for the REINFORCE run only (the loops that generated the random and
	// evolution runs kept none).
	History         []string `json:"history,omitempty"`
	Best            []int    `json:"best"`
	BestQualityBits string   `json:"best_quality_bits"`
	BestPerfBits    string   `json:"best_perf_bits"`
}

type analyticGolden struct {
	Config string        `json:"config"`
	Runs   []analyticRun `json:"runs"`
}

const analyticGoldenNote = "dlrm-small space, hwsim TPUv4 perf, quadratic quality, seed=7; random 96 trials, evolution 96 trials (defaults), reinforce shards=4 steps=24 ctrl=0.1/0.9/0.001"

func bitsOf(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = bits(v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func analyticRunOf(rule string, res *Outcome, history bool) analyticRun {
	run := analyticRun{
		Rule:            rule,
		Best:            res.Best,
		BestQualityBits: bits(res.FinalQuality),
		BestPerfBits:    bitsOf(res.BestPerf),
	}
	for _, c := range res.Candidates {
		run.Candidates = append(run.Candidates,
			fmt.Sprintf("%d %v %s %s %s", c.Step, []int(c.Assignment), bits(c.Quality), bits(c.Reward), bitsOf(c.Perf)))
	}
	if history {
		for _, h := range res.History {
			run.History = append(run.History,
				fmt.Sprintf("%d %s %s %s %s", h.Step, bits(h.MeanReward), bits(h.MeanQ), bits(h.Entropy), bits(h.Confidence)))
		}
	}
	return run
}

// analyticGoldenSearcher is the fixed space and evaluator of the
// analytic golden: simulated step time and serving memory as the
// performance objectives, and a quality that peaks when every decision
// picks its middle option (plain arithmetic, so the bits are portable).
func analyticGoldenSearcher() *AnalyticSearcher {
	ds := space.NewDLRMSpace(space.SmallDLRMConfig())
	obj := &DLRMObjectives{DS: ds, Chip: hwsim.TPUv4()}
	base := obj.BaselinePerf()
	return &AnalyticSearcher{
		Space: ds.Space,
		Reward: reward.MustNew(reward.ReLU,
			reward.Objective{Name: "train_step_time", Target: base[0], Beta: -2},
			reward.Objective{Name: "serving_memory", Target: base[1], Beta: -1},
		),
		Quality: func(a space.Assignment) float64 {
			var q float64
			for i, d := range ds.Space.Decisions {
				diff := (float64(a[i]) - float64(d.Arity()-1)/2) / float64(d.Arity())
				q -= diff * diff * (1 + float64(i)/10)
			}
			return q
		},
		Perf: obj.Perf,
	}
}

// TestGoldenAnalytic replays the three search rules through the one
// analytic loop and asserts every candidate and the chosen architecture
// bit for bit against testdata/golden/analytic.json. That file was
// generated at the commit before the fold by the three loops the fold
// deleted — multitrial.go's random-search and evolution (default config)
// functions and AnalyticSearcher's hand-driven controller — so
// reproducing it is the proof that each rule now exists once without a
// number having moved.
func TestGoldenAnalytic(t *testing.T) {
	const seed, trials = 7, 96
	s := analyticGoldenSearcher()
	rules := []struct {
		name string
		cfg  Config
	}{
		{"random", Config{Shards: 1, Steps: trials, Seed: seed, Strategy: NewRandomSearch(s.Space)}},
		{"evolution", Config{Shards: 1, Steps: trials, Seed: seed, Strategy: NewEvolution(s.Space, EvolutionOpts{})}},
		{"reinforce", Config{Shards: 4, Steps: trials / 4, Seed: seed,
			Controller: controller.Config{LearningRate: 0.1, BaselineMomentum: 0.9, EntropyWeight: 1e-3}}},
	}
	g := analyticGolden{Config: analyticGoldenNote}
	for _, r := range rules {
		res, err := s.Search(r.cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		g.Runs = append(g.Runs, analyticRunOf(r.name, res, r.cfg.Strategy == nil))
	}
	got, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden", "analytic.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing analytic golden: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("analytic trajectories diverged from %s\n got: %s\nwant: %s", path, got, want)
	}
}
