package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"h2onas/internal/controller"
	"h2onas/internal/datapipe"
	"h2onas/internal/hwsim"
	"h2onas/internal/metrics"
	"h2onas/internal/reward"
	"h2onas/internal/space"
)

// testSearcher builds a small searcher with simulator-backed objectives.
func testSearcher(t *testing.T, kind reward.Kind, latFactor float64, seed uint64) (*Searcher, *DLRMObjectives) {
	t.Helper()
	ds := space.NewDLRMSpace(space.SmallDLRMConfig())
	obj := &DLRMObjectives{DS: ds, Chip: hwsim.TPUv4()}
	base := obj.BaselinePerf()
	rw := reward.MustNew(kind,
		reward.Objective{Name: "train_step_time", Target: base[0] * latFactor, Beta: -2},
		reward.Objective{Name: "serving_memory", Target: base[1], Beta: -1},
	)
	stream := datapipe.NewStream(datapipe.CTRConfig{
		NumTables: ds.Config.NumTables,
		Vocab:     ds.Config.BaseVocab,
		NumDense:  ds.Config.NumDense,
	}, seed)
	return &Searcher{DS: ds, Reward: rw, Perf: obj.Perf, Stream: stream}, obj
}

func fastConfig(seed uint64) Config {
	return Config{
		Shards:      4,
		Steps:       60,
		BatchSize:   32,
		WarmupSteps: 10,
		WeightLR:    0.003,
		Controller:  controller.Config{LearningRate: 0.1, BaselineMomentum: 0.9, EntropyWeight: 1e-3},
		Seed:        seed,
	}
}

func TestSearchRunsAndProducesResult(t *testing.T) {
	s, _ := testSearcher(t, reward.ReLU, 1.0, 1)
	res, err := s.Search(fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DS.Space.Validate(res.Best); err != nil {
		t.Fatalf("Best invalid: %v", err)
	}
	if len(res.History) != 60 {
		t.Fatalf("history length %d, want 60", len(res.History))
	}
	// One shard per step is the sandwich shard (weights only).
	if len(res.Candidates) != 60*3 {
		t.Fatalf("candidates %d, want 180", len(res.Candidates))
	}
	if len(res.BestPerf) != 2 {
		t.Fatalf("BestPerf = %v", res.BestPerf)
	}
	if res.ExamplesSeen <= 0 {
		t.Fatal("no examples consumed")
	}
}

func TestSearchImprovesRewardOverTime(t *testing.T) {
	if testing.Short() {
		t.Skip("long convergence run; the fan-out is race-checked by the faster search tests")
	}
	s, _ := testSearcher(t, reward.ReLU, 1.0, 2)
	cfg := fastConfig(2)
	cfg.Steps = 120
	res, err := s.Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	early := meanRewardRange(res.History[:20])
	late := meanRewardRange(res.History[len(res.History)-20:])
	if late <= early {
		t.Fatalf("reward did not improve: early %v, late %v", early, late)
	}
}

func TestSearchConvergesPolicy(t *testing.T) {
	s, _ := testSearcher(t, reward.ReLU, 1.0, 3)
	cfg := fastConfig(3)
	cfg.Steps = 120
	res, err := s.Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := res.History[0]
	last := res.History[len(res.History)-1]
	if last.Entropy >= first.Entropy {
		t.Fatalf("policy entropy did not shrink: %v → %v", first.Entropy, last.Entropy)
	}
	if last.Confidence <= first.Confidence {
		t.Fatalf("policy confidence did not grow: %v → %v", first.Confidence, last.Confidence)
	}
}

func TestTightLatencyTargetYieldsFasterModel(t *testing.T) {
	if testing.Short() {
		t.Skip("two full searches; the fan-out is race-checked by the faster search tests")
	}
	// The multi-objective machinery end to end: a search with a tight
	// step-time target must find a faster architecture than one with a
	// loose target.
	run := func(factor float64) float64 {
		s, _ := testSearcher(t, reward.ReLU, factor, 4)
		cfg := fastConfig(4)
		cfg.Steps = 100
		res, err := s.Search(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.BestPerf[0]
	}
	tight := run(0.6)
	loose := run(1.5)
	if tight >= loose {
		t.Fatalf("tight target gave %.3gs, loose gave %.3gs — want tight < loose", tight, loose)
	}
}

func TestSearchValidatesConfig(t *testing.T) {
	s, _ := testSearcher(t, reward.ReLU, 1.0, 6)
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"zero config", func(c *Config) { *c = Config{} }},
		{"no shards", func(c *Config) { c.Shards = 0 }},
		{"no steps", func(c *Config) { c.Steps = 0 }},
		{"negative batch", func(c *Config) { c.BatchSize = -1 }},
		// Used to run Steps−1 steps, or none at all and "succeed".
		{"negative warmup", func(c *Config) { c.WarmupSteps = -1 }},
		{"warmup cancels every step", func(c *Config) { c.WarmupSteps = -c.Steps }},
	} {
		cfg := fastConfig(6)
		tc.edit(&cfg)
		if _, err := s.Search(cfg); err == nil {
			t.Errorf("%s: Search accepted it", tc.name)
		}
		val := datapipe.NewStream(s.Stream.Config(), 1006)
		if _, err := s.TuNASSearch(cfg, val); err == nil {
			t.Errorf("%s: TuNASSearch accepted it", tc.name)
		}
	}
	bad := &Searcher{}
	if _, err := bad.Search(fastConfig(1)); err == nil {
		t.Fatal("incomplete searcher must be rejected")
	}
}

// TestLoopsRefuseWhatTheyCannotHonour: every search loop refuses a Config
// field it cannot honour, naming it, instead of dropping it silently.
func TestLoopsRefuseWhatTheyCannotHonour(t *testing.T) {
	loops := map[string]func(Config) error{
		"engine": func(cfg Config) error {
			s, _ := testSearcher(t, reward.ReLU, 1.0, 9)
			_, err := s.Search(cfg)
			return err
		},
		"analytic": func(cfg Config) error {
			_, err := quadraticSearcher(multiTrialSpace()).Search(cfg)
			return err
		},
		"tunas": func(cfg Config) error {
			s, _ := testSearcher(t, reward.Absolute, 1.0, 9)
			_, err := s.TuNASSearch(cfg, datapipe.NewStream(s.Stream.Config(), 1009))
			return err
		},
	}
	stop := make(chan struct{})
	for _, tc := range []struct {
		loop, field string
		edit        func(*Config)
	}{
		{"engine", "Resume", func(c *Config) { c.Resume = true }},
		{"analytic", "Stop", func(c *Config) { c.Stop = stop }},
		{"analytic", "WarmupSteps", func(c *Config) { c.WarmupSteps = 2 }},
		{"analytic", "CheckpointDir", func(c *Config) { c.CheckpointDir = "ckpt" }},
		{"analytic", "Transport", func(c *Config) { c.Transport = &stubTransport{"inproc"} }},
		{"tunas", "Stop", func(c *Config) { c.Stop = stop }},
		{"tunas", "CheckpointDir", func(c *Config) { c.CheckpointDir = "ckpt" }},
		{"tunas", "Resume", func(c *Config) { c.Resume = true }},
		{"tunas", "Transport", func(c *Config) { c.Transport = &stubTransport{"inproc"} }},
		{"tunas", "ShardFault", func(c *Config) { c.ShardFault = func(int, int, int) error { return nil } }},
	} {
		cfg := fastConfig(9)
		cfg.Steps, cfg.WarmupSteps = 2, 0
		tc.edit(&cfg)
		if err := loops[tc.loop](cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s loop with %s set returned %v, want a refusal naming it", tc.loop, tc.field, err)
		}
	}
}

// TestTuNASHonoursStrategyCandidatesAndMetrics: the baseline samples and
// updates through Config.Strategy, bounds its candidates by MaxCandidates
// and reports to Metrics, like every loop behind the policy stage.
func TestTuNASHonoursStrategyCandidatesAndMetrics(t *testing.T) {
	s, _ := testSearcher(t, reward.Absolute, 1.0, 10)
	cfg := fastConfig(10)
	cfg.Steps, cfg.WarmupSteps = 6, 1
	evo := NewEvolution(s.DS.Space, EvolutionOpts{Population: 4})
	cfg.Strategy, cfg.MaxCandidates, cfg.Metrics = evo, 5, metrics.New()
	res, err := s.TuNASSearch(cfg, datapipe.NewStream(s.Stream.Config(), 1010))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 5 || res.Candidates[4].Step != cfg.Steps-1 {
		t.Fatalf("kept %d candidates ending at step %d, want the newest 5 ending at step %d", len(res.Candidates), res.Candidates[len(res.Candidates)-1].Step, cfg.Steps-1)
	}
	if got := len(evo.pop); got != 4 || !slices.Equal(res.Best, evo.Best()) {
		t.Fatalf("the evolution strategy holds %d individuals and chose %v, search chose %v", got, evo.Best(), res.Best)
	}
	if got, want := cfg.Metrics.Counter("search_candidates_total").Value(), int64(cfg.Steps*cfg.Shards); got != want {
		t.Fatalf("search_candidates_total = %d, want %d", got, want)
	}
	if got := cfg.Metrics.Counter("search_steps_total").Value(); got != int64(cfg.Steps) {
		t.Fatalf("search_steps_total = %d, want %d", got, cfg.Steps)
	}
}

func TestProgressCallbackFires(t *testing.T) {
	s, _ := testSearcher(t, reward.ReLU, 1.0, 7)
	cfg := fastConfig(7)
	cfg.Steps, cfg.WarmupSteps = 10, 2
	calls := 0
	cfg.Progress = func(info StepInfo) {
		if info.Step != calls {
			t.Errorf("progress step %d, want %d", info.Step, calls)
		}
		calls++
	}
	if _, err := s.Search(cfg); err != nil {
		t.Fatal(err)
	}
	if calls != 10 {
		t.Fatalf("progress fired %d times, want 10", calls)
	}
}

func TestTuNASBaselineRuns(t *testing.T) {
	s, _ := testSearcher(t, reward.Absolute, 1.0, 8)
	val := datapipe.NewStream(s.Stream.Config(), 1008) // independent validation stream
	cfg := fastConfig(8)
	cfg.Steps, cfg.WarmupSteps = 20, 5
	res, err := s.TuNASSearch(cfg, val)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DS.Space.Validate(res.Best); err != nil {
		t.Fatalf("TuNAS best invalid: %v", err)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("TuNAS evaluated no candidates")
	}
	// TuNAS consumes train + validation streams.
	if val.ExamplesServed() == 0 {
		t.Fatal("TuNAS must consume validation data")
	}
}

func TestObjectivesModelFreePath(t *testing.T) {
	ds := space.NewDLRMSpace(space.SmallDLRMConfig())
	obj := &DLRMObjectives{DS: ds, Chip: hwsim.TPUv4()}
	perf := obj.Perf(ds.BaselineAssignment())
	if len(perf) != 2 || perf[0] <= 0 || perf[1] <= 0 {
		t.Fatalf("Perf = %v", perf)
	}
	base := obj.BaselinePerf()
	if math.Abs(base[0]-perf[0])/base[0] > 1e-9 {
		t.Fatal("baseline perf must equal Perf(baseline) on the simulator path")
	}
}

func TestSimulatorAndMeasuredSamples(t *testing.T) {
	ds := space.NewDLRMSpace(space.SmallDLRMConfig())
	sim := SimulatorSamples(ds, hwsim.TPUv4(), 10, 1)
	meas := MeasuredSamples(ds, hwsim.TPUv4(), 10, 1)
	if len(sim) != 10 || len(meas) != 10 {
		t.Fatal("sample counts wrong")
	}
	for i := range sim {
		if sim[i].TrainTime <= 0 || sim[i].ServeTime <= 0 {
			t.Fatalf("sim sample %d non-positive", i)
		}
		if len(sim[i].Features) != len(ds.Space.Decisions) {
			t.Fatalf("feature dim %d", len(sim[i].Features))
		}
	}
	// Measured times carry the systematic gap: on average above simulated
	// times for the same distribution.
	var simMean, measMean float64
	for i := range sim {
		simMean += sim[i].TrainTime
		measMean += meas[i].TrainTime
	}
	if measMean <= simMean {
		t.Fatalf("measured mean (%v) must exceed simulated mean (%v)", measMean, simMean)
	}
}

func meanRewardRange(h []StepInfo) float64 {
	var sum float64
	for _, s := range h {
		sum += s.MeanReward
	}
	return sum / float64(len(h))
}
