package core

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"h2onas/internal/checkpoint"
	"h2onas/internal/controller"
	"h2onas/internal/nn"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
	"h2onas/internal/wire/wiretest"
)

// driveStrategy feeds a strategy steps×perStep deterministic evaluations
// so its state blob is past every "empty" branch.
func driveStrategy(s Strategy, seed uint64, steps, perStep int) {
	rng := tensor.NewRNG(seed)
	for step := 0; step < steps; step++ {
		samples := make([]space.Assignment, perStep)
		rewards := make([]float64, perStep)
		for i := range samples {
			samples[i] = s.Sample(rng, false)
			for d, v := range samples[i] {
				rewards[i] -= float64(v*(d+1)) / 8
			}
		}
		s.Update(samples, rewards)
	}
}

func byteGoldenSpace() *space.Space {
	return space.NewSpace("bytes",
		space.NewDecision("a", 0, 1, 2),
		space.NewDecision("b", 0, 1, 2, 3),
		space.NewDecision("c", 0, 1),
	)
}

func byteGoldenStrategies(t testing.TB) map[string]func() Strategy {
	sp := byteGoldenSpace()
	return map[string]func() Strategy{
		"reinforce": func() Strategy {
			return NewReinforce(sp, controller.Config{LearningRate: 0.1, BaselineMomentum: 0.9, EntropyWeight: 1e-3})
		},
		"random":    func() Strategy { return NewRandomSearch(sp) },
		"evolution": func() Strategy { return NewEvolution(sp, EvolutionOpts{Population: 4, Tournament: 2}) },
		"halving": func() Strategy {
			sh, err := NewSuccessiveHalving(sp, HalvingOpts{Cohort: 4, Eta: 2, Budget: 16})
			if err != nil {
				t.Fatal(err)
			}
			return sh
		},
	}
}

// byteGoldenSnapshot is the fixed snapshot wrapped around a strategy's
// state blob. Its optimizer state has one param of each kind.
func byteGoldenSnapshot(strat Strategy) *checkpoint.Snapshot {
	return &checkpoint.Snapshot{
		Step:            6,
		BatchesConsumed: 18,
		Fingerprint:     "core.Search/v3 space=bytes/3 strategy=" + strat.Name(),
		RNG:             0x9e3779b97f4a7c15,
		Strategy:        strat.Name(),
		StrategyState:   strat.StateBytes(),
		Adam: nn.AdamState{T: 6, Params: []nn.ParamState{
			{Kind: nn.Whole, W: []float64{1, -2.5, math.Inf(-1)}, M: []float64{0.1, 0.2, 0.3}, V: []float64{1, 2, 3}},
			{Kind: nn.Unstepped},
			{Kind: nn.SteppedRows, Rows: []int32{1, 4}, W: []float64{math.SmallestNonzeroFloat64, -7}, M: []float64{1e-300, 0.5}, V: []float64{4, 0.25}},
		}},
		History: []checkpoint.StepRecord{
			{Step: 4, MeanReward: -0.25, MeanQ: 0.5, Entropy: 3.2, Confidence: 0.4},
			{Step: 5, MeanReward: 0.125, MeanQ: 0.75, Entropy: 3.1, Confidence: 0.45},
		},
		CreatedAtUnix: 1754400000,
	}
}

// TestSnapshotBytesMatchGolden pins the on-disk snapshot format: a fixed
// snapshot carrying each strategy's state blob must encode to exactly
// the committed version-3 bytes, and those bytes must restore.
func TestSnapshotBytesMatchGolden(t *testing.T) {
	for name, build := range byteGoldenStrategies(t) {
		t.Run(name, func(t *testing.T) {
			strat := build()
			driveStrategy(strat, 5, 6, 2)
			snap := byteGoldenSnapshot(strat)
			want := wiretest.Hex(t, filepath.Join("testdata", "golden", "snapshot_"+name+".hex"))
			if got := checkpoint.EncodeBytes(snap); !bytes.Equal(got, want) {
				t.Fatalf("snapshot bytes moved:\n got %x\nwant %x", got, want)
			}
			dec, err := checkpoint.Decode(bytes.NewReader(want))
			if err != nil {
				t.Fatalf("decoding the golden snapshot: %v", err)
			}
			if !reflect.DeepEqual(dec, snap) {
				t.Fatalf("golden snapshot decodes to\n%+v\nwant\n%+v", dec, snap)
			}
			restoreGoldenStrategy(t, build, dec, snap.StrategyState)
		})
	}
}

// TestLegacyV2SnapshotGoldensRestore pins that the version-2 snapshot
// goldens — written by the pre-internal/wire encoders, every param whole
// — still decode, and restore both the strategy and, through the one
// nn.Adam.Import path, the weights and moments.
func TestLegacyV2SnapshotGoldensRestore(t *testing.T) {
	for name, build := range byteGoldenStrategies(t) {
		t.Run(name, func(t *testing.T) {
			strat := build()
			driveStrategy(strat, 5, 6, 2)
			want := byteGoldenSnapshot(strat)
			want.Adam.Params = []nn.ParamState{
				want.Adam.Params[0],
				{Kind: nn.Whole, W: []float64{}, M: []float64{}, V: []float64{}},
				{Kind: nn.Whole, W: []float64{math.SmallestNonzeroFloat64}, M: []float64{1e-300}, V: []float64{4}},
			}
			dec, err := checkpoint.Decode(bytes.NewReader(wiretest.Hex(t, filepath.Join("testdata", "golden", "snapshot_"+name+"_v2.hex"))))
			if err != nil {
				t.Fatalf("decoding the v2 golden snapshot: %v", err)
			}
			if !reflect.DeepEqual(dec, want) {
				t.Fatalf("v2 golden snapshot decodes to\n%+v\nwant\n%+v", dec, want)
			}
			restoreGoldenStrategy(t, build, dec, want.StrategyState)

			params := []*nn.Param{
				nn.NewParam("a", tensor.New(1, 3)),
				nn.NewParam("b", tensor.New(1, 0)),
				nn.NewParam("c", tensor.New(1, 1)),
			}
			opt := nn.NewAdam(0.01)
			if err := opt.Import(params, dec.Adam); err != nil {
				t.Fatalf("importing the v2 golden optimizer state: %v", err)
			}
			if !reflect.DeepEqual(opt.Export(params), dec.Adam) {
				t.Fatal("the restored optimizer exports a different state")
			}
		})
	}
}

// restoreGoldenStrategy restores a decoded golden's strategy blob into a
// fresh strategy, which must re-serialize to the original bytes.
func restoreGoldenStrategy(t *testing.T, build func() Strategy, dec *checkpoint.Snapshot, state []byte) {
	t.Helper()
	fresh := build()
	if err := fresh.RestoreState(dec.StrategyState); err != nil {
		t.Fatalf("restoring the golden strategy state: %v", err)
	}
	if !bytes.Equal(fresh.StateBytes(), state) {
		t.Fatal("restored strategy re-serializes to different bytes")
	}
}
