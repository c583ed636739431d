package perfmodel

import (
	"math"
	"testing"

	"h2onas/internal/metrics"
	"h2onas/internal/tensor"
)

// synthSamples generates samples from a smooth nonlinear ground truth with
// an optional multiplicative "silicon gap", mimicking what the simulator
// and hardware measurements produce.
func synthSamples(n, featDim int, gap float64, seed uint64) []Sample {
	rng := tensor.NewRNG(seed)
	out := make([]Sample, n)
	for i := range out {
		f := make([]float64, featDim)
		for j := range f {
			f[j] = rng.Float64()
		}
		// Ground truth: product of feature effects (log-linear + curvature).
		lt := -6.0 + 1.5*f[0] + 0.8*f[1]*f[1] + 0.4*f[2] + 0.3*f[0]*f[3]
		ls := lt - 1.2 - 0.5*f[1]
		out[i] = Sample{
			Features:  f,
			TrainTime: math.Exp(lt) * gap,
			ServeTime: math.Exp(ls) * gap,
		}
	}
	return out
}

const testFeatDim = 6

func smallModel(seed uint64) *Model {
	return New(testFeatDim, []int{64, 64}, seed)
}

func fastPretrain() TrainConfig { return TrainConfig{Epochs: 30, BatchSize: 64, LR: 2e-3, Seed: 1} }

func TestPretrainFitsSimulatorData(t *testing.T) {
	m := smallModel(1)
	train := synthSamples(2000, testFeatDim, 1.0, 10)
	if err := m.Pretrain(train, fastPretrain()); err != nil {
		t.Fatal(err)
	}
	holdout := synthSamples(500, testFeatDim, 1.0, 11)
	if got := m.NRMSE(holdout, TrainHead); got > 0.08 {
		t.Fatalf("pretrain NRMSE on held-out sim data = %v, want < 0.08", got)
	}
	if got := m.NRMSE(holdout, ServeHead); got > 0.08 {
		t.Fatalf("pretrain serve NRMSE = %v, want < 0.08", got)
	}
}

func TestFineTuningClosesSiliconGap(t *testing.T) {
	// The Table 1 structure: pretrained model has large NRMSE against
	// "measurements" (gapped data); fine-tuning on ~20 measurements
	// reduces it by roughly an order of magnitude.
	m := smallModel(2)
	sim := synthSamples(2000, testFeatDim, 1.0, 20)
	if err := m.Pretrain(sim, fastPretrain()); err != nil {
		t.Fatal(err)
	}
	const gap = 1.35
	measured := synthSamples(20, testFeatDim, gap, 21)
	holdout := synthSamples(300, testFeatDim, gap, 22)

	before := m.NRMSE(holdout, TrainHead)
	if before < 0.15 {
		t.Fatalf("pretrained model should miss the silicon gap: NRMSE %v", before)
	}
	if err := m.FineTune(measured, DefaultFineTuneConfig()); err != nil {
		t.Fatal(err)
	}
	after := m.NRMSE(holdout, TrainHead)
	if after > before/3 {
		t.Fatalf("fine-tuning should cut NRMSE ≥3x: %v → %v", before, after)
	}
	if after > 0.12 {
		t.Fatalf("fine-tuned NRMSE = %v, want ≤ 0.12", after)
	}
}

func TestPredictPositiveAndFinite(t *testing.T) {
	m := smallModel(3)
	samples := synthSamples(500, testFeatDim, 1.0, 30)
	if err := m.Pretrain(samples, fastPretrain()); err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(31)
	for i := 0; i < 50; i++ {
		f := make([]float64, testFeatDim)
		for j := range f {
			f[j] = rng.Float64()
		}
		tt, ts := m.Predict(f)
		if tt <= 0 || ts <= 0 || math.IsInf(tt, 0) || math.IsNaN(tt) {
			t.Fatalf("Predict = (%v, %v), must be positive finite", tt, ts)
		}
	}
}

func TestPredictPanicsOnWrongDim(t *testing.T) {
	m := smallModel(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong feature dim")
		}
	}()
	m.Predict([]float64{1, 2})
}

func TestPretrainValidation(t *testing.T) {
	m := smallModel(5)
	if err := m.Pretrain(nil, fastPretrain()); err == nil {
		t.Fatal("empty pretraining set must error")
	}
	bad := []Sample{{Features: []float64{1}, TrainTime: 1, ServeTime: 1}}
	if err := m.Pretrain(bad, fastPretrain()); err == nil {
		t.Fatal("wrong feature dim must error")
	}
	good := synthSamples(10, testFeatDim, 1, 1)
	if err := m.Pretrain(good, TrainConfig{}); err == nil {
		t.Fatal("zeroed train config must error")
	}
}

func TestNRMSEZeroForPerfectModel(t *testing.T) {
	// NRMSE of an exactly-matching sample set is 0 by construction of the
	// formula: check via a degenerate one-sample evaluation of itself.
	m := smallModel(6)
	s := synthSamples(400, testFeatDim, 1.0, 60)
	if err := m.Pretrain(s, TrainConfig{Epochs: 80, BatchSize: 64, LR: 2e-3, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	if got := m.NRMSE(s, TrainHead); got > 0.06 {
		t.Fatalf("NRMSE on the training set = %v, should be small", got)
	}
	if m.NRMSE(nil, TrainHead) != 0 {
		t.Fatal("NRMSE of empty set must be 0")
	}
}

func TestDualHeadsIndependent(t *testing.T) {
	// Train and serve targets have different offsets; the model must keep
	// them apart rather than predicting one curve for both.
	m := smallModel(7)
	s := synthSamples(1500, testFeatDim, 1.0, 70)
	if err := m.Pretrain(s, fastPretrain()); err != nil {
		t.Fatal(err)
	}
	f := s[0].Features
	tt, ts := m.Predict(f)
	if ts >= tt {
		t.Fatalf("serve time (%v) must be below train time (%v) as in the ground truth", ts, tt)
	}
}

func TestNewValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive feature dim")
		}
	}()
	New(0, nil, 1)
}

func TestFineTuneDegradedSampleSet(t *testing.T) {
	// A measurement campaign can deliver fewer samples than the
	// configured batch size; FineTune must clamp rather than reject, and
	// must report the thin set through its gauge.
	m := smallModel(8)
	sim := synthSamples(1200, testFeatDim, 1.0, 80)
	if err := m.Pretrain(sim, fastPretrain()); err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	m.SetMetrics(reg)

	measured := synthSamples(5, testFeatDim, 1.3, 81)
	cfg := DefaultFineTuneConfig() // BatchSize 8 > 5 samples
	cfg.Epochs = 50
	if err := m.FineTune(measured, cfg); err != nil {
		t.Fatalf("FineTune on 5 samples: %v", err)
	}
	if got := reg.Gauge("perfmodel_finetune_samples").Value(); got != 5 {
		t.Fatalf("perfmodel_finetune_samples = %v, want 5", got)
	}

	// Even the thin set must move predictions toward the shifted
	// distribution.
	holdout := synthSamples(400, testFeatDim, 1.3, 82)
	fresh := smallModel(8)
	if err := fresh.Pretrain(sim, fastPretrain()); err != nil {
		t.Fatal(err)
	}
	pre := fresh.NRMSE(holdout, TrainHead)
	post := m.NRMSE(holdout, TrainHead)
	if post >= pre {
		t.Fatalf("thin fine-tune did not help: NRMSE %.4f -> %.4f", pre, post)
	}
}
