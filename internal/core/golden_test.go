package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"h2onas/internal/datapipe"
	"h2onas/internal/reward"
)

// updateGolden rewrites the committed golden trajectories instead of
// asserting against them:
//
//	go test ./internal/core -run 'TestEngineEquivalence|TestGoldenAnalytic|TestGoldenTuNAS' -update-golden
//
// Review the diff before committing — a changed golden means the
// search trajectory changed, which is only correct when the change is
// an intentional algorithmic one.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden trajectories")

// goldenStep is one search step of a committed trajectory. The _bits
// fields are %016x of math.Float64bits — an exact representation, so the
// assertion is bit-identity, not approximate closeness. MeanReward is
// repeated as a plain float for human diffing only.
type goldenStep struct {
	Step           int     `json:"step"`
	MeanRewardBits string  `json:"mean_reward_bits"`
	MeanQBits      string  `json:"mean_q_bits"`
	EntropyBits    string  `json:"entropy_bits"`
	ConfidenceBits string  `json:"confidence_bits"`
	MeanReward     float64 `json:"mean_reward"`
}

type goldenTrace struct {
	Strategy         string       `json:"strategy"`
	Config           string       `json:"config"`
	Best             []int        `json:"best"`
	FinalQualityBits string       `json:"final_quality_bits"`
	FinalQuality     float64      `json:"final_quality"`
	Steps            []goldenStep `json:"steps"`
	// ExamplesSeen is pinned only where it is a pure function of the
	// config: in a loop without a prefetch stage (TuNAS).
	ExamplesSeen int64 `json:"examples_seen,omitempty"`
}

func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// GoldenTrace encodes a search outcome the way the committed trajectories
// are stored: the selected architecture, the final quality and every
// step's reward/quality/entropy/confidence as float bits. config is the
// self-describing note stored with it.
func GoldenTrace(t *testing.T, name, config string, res *Outcome) []byte {
	t.Helper()
	return newGoldenTrace(name, config, res).encode(t)
}

func newGoldenTrace(name, config string, res *Outcome) *goldenTrace {
	tr := &goldenTrace{
		Strategy:         name,
		Config:           config,
		Best:             res.Best,
		FinalQualityBits: bits(res.FinalQuality),
		FinalQuality:     res.FinalQuality,
	}
	for _, h := range res.History {
		tr.Steps = append(tr.Steps, goldenStep{
			Step:           h.Step,
			MeanRewardBits: bits(h.MeanReward),
			MeanQBits:      bits(h.MeanQ),
			EntropyBits:    bits(h.Entropy),
			ConfidenceBits: bits(h.Confidence),
			MeanReward:     h.MeanReward,
		})
	}
	return tr
}

func (tr *goldenTrace) encode(t *testing.T) []byte {
	t.Helper()
	data, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// CheckGolden asserts the trace got is byte-identical to the committed
// one at testdata/golden/<file>, or rewrites that file under
// -update-golden.
func CheckGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", file)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden trace (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trajectory diverged from %s\n got: %s\nwant: %s\nThe search walked a different path on the pinned seed. If the change is intentional, regenerate with -update-golden and justify the new trajectory in review.", path, got, want)
	}
}

// TestGoldenTuNAS pins the alternating two-step baseline (Figure 2,
// left; the abl-unified ablation) on TestTuNASBaselineRuns's config: its
// trajectory, choice, final quality and the examples it drew from both
// streams, which carry no prefetch and so are a function of the config.
func TestGoldenTuNAS(t *testing.T) {
	s, _ := testSearcher(t, reward.Absolute, 1.0, 8)
	val := datapipe.NewStream(s.Stream.Config(), 1008)
	cfg := fastConfig(8)
	cfg.Steps, cfg.WarmupSteps = 20, 5
	res, err := s.TuNASSearch(cfg, val)
	if err != nil {
		t.Fatal(err)
	}
	tr := newGoldenTrace("reinforce", "dlrm-small tunas shards=4 steps=20 warmup=5 batch=32 seed=8 val_seed=1008 reward=absolute ctrl=0.1/0.9/0.001", &res.Outcome)
	tr.ExamplesSeen = res.ExamplesSeen
	CheckGolden(t, "tunas.json", tr.encode(t))
}
