package core_test

import (
	"strings"
	"testing"

	"h2onas/internal/checkpoint"
	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/hwsim"
	"h2onas/internal/reward"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
	"h2onas/internal/vitnet"
)

// The transformer space rides the same step engine as the DLRM space, so
// it is held to the same contracts: it is a key of TestEngineEquivalence,
// and this file adds its case to the harnesses outside the matrix (it
// sits in the external test package because vitnet imports core).

func vitSearcher(seed uint64) *vitnet.Searcher {
	vs := space.NewTransformerSpace(space.SmallViTConfig())
	chip := hwsim.TPUv4()
	perf := func(a space.Assignment) []float64 {
		r := hwsim.Simulate(vs.Graph(vs.Decode(a)), chip, hwsim.Options{Mode: hwsim.Training, Chips: 8})
		return []float64{r.StepTime}
	}
	base := perf(vs.BaselineAssignment())
	return &vitnet.Searcher{
		VS:     vs,
		Reward: reward.MustNew(reward.ReLU, reward.Objective{Name: "train_step_time", Target: base[0], Beta: -2}),
		Perf:   perf,
		Stream: datapipe.NewSeqStream(datapipe.DefaultSeqConfig(), seed),
	}
}

// vitSearch is the transformer core.SearchFunc.
func vitSearch(t *testing.T, seed uint64, cfg core.Config) (*core.Outcome, error) {
	res, err := vitSearcher(seed).Search(cfg)
	if res == nil {
		return nil, err
	}
	return &res.Outcome, err
}

func TestPermanentShardFailureDegradesGracefullyViT(t *testing.T) {
	cfg := goldenConfig(8)
	cfg.Steps, cfg.WarmupSteps = 6, 2
	core.HarnessPermanentShardFailure(t, vitSearch, vitSearcher(0).VS.Space, cfg)
}

func TestSearchLeaksNoGoroutinesViT(t *testing.T) {
	cfg := goldenConfig(8)
	cfg.Steps, cfg.WarmupSteps = 3, 1
	core.HarnessSearchLeaksNoGoroutines(t, vitSearch, cfg)
}

// TestResumeRefusesOtherSpace: both spaces write the same snapshot format
// through the same engine, so the fingerprint is what keeps a checkpoint
// written by one from being loaded into the other's super-network.
func TestResumeRefusesOtherSpace(t *testing.T) {
	cfg := goldenConfig(8)
	cfg.Steps, cfg.WarmupSteps = 2, 1
	cfg.CheckpointEvery, cfg.CheckpointDir, cfg.CheckpointFS = 1, "ckpt", checkpoint.NewMemFS()
	if _, err := vitSearch(t, 5, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	_, err := core.DLRMSearch(t, 5, cfg)
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("DLRM resume from a transformer checkpoint returned %v, want a fingerprint mismatch", err)
	}
}

// TestViTRejectsTransport: Config.Transport serves the DLRM
// super-network, so the engine refuses it for the transformer space with
// its one refusal, before it builds a network, binds the transport or
// runs a step, rather than run in-process behind the caller's back.
func TestViTRejectsTransport(t *testing.T) {
	cfg := goldenConfig(8)
	cfg.Transport = core.StubTransport("tcp[10.0.0.1:7070]")
	ran := 0
	cfg.Progress = func(core.StepInfo) { ran++ }
	cfg.ShardFault = func(int, int, int) error { ran++; return nil }
	_, err := vitSearch(t, 1, cfg)
	if err == nil || !strings.HasPrefix(err.Error(), "core: Config.Transport ") || strings.Contains(err.Error(), "binding") {
		t.Fatalf("transformer search with a Transport returned %v, want the engine's refusal", err)
	}
	if ran != 0 {
		t.Fatalf("the refused search ran %d shard attempts or steps, want none", ran)
	}

	s := vitSearcher(1)
	seq := s.Stream.Config()
	built := 0
	eng := core.Engine[*datapipe.SeqBatch, *vitnet.Supernet]{
		Space: s.VS.Space, Reward: s.Reward, Perf: s.Perf, Stream: s.Stream,
		New: func(rng *tensor.RNG) *vitnet.Supernet {
			built++
			return vitnet.New(s.VS, seq.Vocab, seq.SeqLen, rng)
		},
	}
	if _, err := eng.Search(cfg); err == nil || built != 0 {
		t.Fatalf("engine refusal returned %v after building %d networks, want an error and none built", err, built)
	}
}
