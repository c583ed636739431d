// Package perfmodel implements the scalable ML-driven hardware performance
// model of Section 6.2: an MLP that maps architecture hyper-parameters
// (the search space's feature encoding) to predicted training and serving
// performance, trained in two phases — *pre-training* on a large corpus of
// simulator-generated samples and *fine-tuning* on O(20) real hardware
// measurements — plus the analytic model-size head.
//
// The model predicts in log-time space with standardized targets, which is
// what lets ~20 fine-tuning points close the (mostly multiplicative)
// simulator-to-silicon gap: in log space that gap is largely an offset.
package perfmodel

import (
	"fmt"
	"math"

	"h2onas/internal/metrics"
	"h2onas/internal/nn"
	"h2onas/internal/tensor"
)

// Sample is one (architecture, performance) observation. Times are in
// seconds; either may be zero if that head is unused.
type Sample struct {
	Features  []float64
	TrainTime float64
	ServeTime float64
}

// TrainConfig controls either training phase.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Seed      uint64
}

// DefaultFineTuneConfig returns the fine-tuning hyperparameters: many
// passes over the tiny measured set at a low learning rate.
func DefaultFineTuneConfig() TrainConfig {
	return TrainConfig{Epochs: 300, BatchSize: 8, LR: 2e-4, Seed: 2}
}

// Model is the dual-head MLP performance predictor.
type Model struct {
	net     *nn.Sequential
	featDim int
	hidden  []int

	// Target standardization (log space), fixed at pretraining.
	trainMean, trainStd float64
	serveMean, serveStd float64

	// Inference instruments (nil-safe no-ops until SetMetrics).
	predictCalls    *metrics.Counter
	predictLatency  *metrics.Histogram
	trainRuns       *metrics.Counter
	trainLatency    *metrics.Histogram
	finetuneSamples *metrics.Gauge
}

// SetMetrics installs the registry receiving the model's telemetry:
// perfmodel_predict_calls_total / perfmodel_predict_seconds for
// inference, perfmodel_train_runs_total / perfmodel_train_seconds for
// the two training phases. Call before sharing the model across
// goroutines; a nil (nop) registry keeps Predict overhead at two nil
// checks.
func (m *Model) SetMetrics(r *metrics.Registry) {
	m.predictCalls = r.Counter("perfmodel_predict_calls_total")
	m.predictLatency = r.Histogram("perfmodel_predict_seconds")
	m.trainRuns = r.Counter("perfmodel_train_runs_total")
	m.trainLatency = r.Histogram("perfmodel_train_seconds")
	m.finetuneSamples = r.Gauge("perfmodel_finetune_samples")
}

// New builds an untrained model for featDim input features with the given
// hidden widths (Table 1 uses two hidden layers of 512 neurons). It
// panics on a non-positive feature dimension or hidden width.
func New(featDim int, hidden []int, seed uint64) *Model {
	if featDim <= 0 {
		panic("perfmodel: non-positive feature dimension")
	}
	if len(hidden) == 0 {
		hidden = []int{512, 512}
	}
	rng := tensor.NewRNG(seed)
	var layers []nn.Layer
	in := featDim
	for _, h := range hidden {
		if h <= 0 {
			panic(fmt.Sprintf("perfmodel: non-positive hidden width %d", h))
		}
		layers = append(layers, nn.NewDense(in, h, rng), nn.NewActivationLayer(nn.ReLU))
		in = h
	}
	layers = append(layers, nn.NewDense(in, 2, rng)) // dual head: train, serve
	return &Model{
		net:      nn.NewSequential(layers...),
		featDim:  featDim,
		hidden:   append([]int(nil), hidden...),
		trainStd: 1, serveStd: 1,
	}
}

// Pretrain trains the model on simulator samples, fixing the target
// standardization from this corpus.
func (m *Model) Pretrain(samples []Sample, cfg TrainConfig) error {
	if len(samples) == 0 {
		return fmt.Errorf("perfmodel: no pretraining samples")
	}
	m.fitNormalization(samples)
	return m.train(samples, cfg)
}

// FineTune continues training on measured samples without refitting the
// normalization (the measurement distribution is tiny and shifted — that
// shift is exactly what the network must learn).
//
// The measured set may be smaller than planned (hardware runs fail):
// FineTune accepts any non-empty set, clamps the batch size down to the
// set when needed, and reports the count via the
// perfmodel_finetune_samples gauge so operators can see that the model
// was tuned on thin (noisier) data.
func (m *Model) FineTune(samples []Sample, cfg TrainConfig) error {
	if len(samples) == 0 {
		return fmt.Errorf("perfmodel: no fine-tuning samples")
	}
	m.finetuneSamples.Set(float64(len(samples)))
	if cfg.BatchSize > len(samples) {
		cfg.BatchSize = len(samples)
	}
	return m.train(samples, cfg)
}

func (m *Model) fitNormalization(samples []Sample) {
	var tsum, tsq, ssum, ssq float64
	n := float64(len(samples))
	for _, s := range samples {
		lt, ls := safeLog(s.TrainTime), safeLog(s.ServeTime)
		tsum += lt
		tsq += lt * lt
		ssum += ls
		ssq += ls * ls
	}
	m.trainMean = tsum / n
	m.serveMean = ssum / n
	m.trainStd = math.Sqrt(math.Max(tsq/n-m.trainMean*m.trainMean, 1e-12))
	m.serveStd = math.Sqrt(math.Max(ssq/n-m.serveMean*m.serveMean, 1e-12))
}

func (m *Model) train(samples []Sample, cfg TrainConfig) error {
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 || cfg.LR <= 0 {
		return fmt.Errorf("perfmodel: invalid train config %+v", cfg)
	}
	m.trainRuns.Inc()
	defer m.trainLatency.Start().End()
	for _, s := range samples {
		if len(s.Features) != m.featDim {
			return fmt.Errorf("perfmodel: sample has %d features, model expects %d", len(s.Features), m.featDim)
		}
	}
	rng := tensor.NewRNG(cfg.Seed)
	opt := nn.NewAdam(cfg.LR)
	loss := nn.MSE{}
	params := m.net.Params()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(len(samples))
		for lo := 0; lo < len(perm); lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > len(perm) {
				hi = len(perm)
			}
			nb := hi - lo
			x := tensor.New(nb, m.featDim)
			y := tensor.New(nb, 2)
			for i := 0; i < nb; i++ {
				s := samples[perm[lo+i]]
				copy(x.Row(i), s.Features)
				y.Set(i, 0, (safeLog(s.TrainTime)-m.trainMean)/m.trainStd)
				y.Set(i, 1, (safeLog(s.ServeTime)-m.serveMean)/m.serveStd)
			}
			out := m.net.Forward(x)
			_, dout := loss.Eval(out, y)
			nn.ZeroGrads(params)
			m.net.Backward(dout)
			nn.ClipGradNorm(params, 5)
			opt.Step(params)
		}
	}
	return nil
}

// Predict returns (training time, serving time) in seconds for an
// architecture's feature vector.
func (m *Model) Predict(features []float64) (trainTime, serveTime float64) {
	m.predictCalls.Inc()
	defer m.predictLatency.Start().End()
	if len(features) != m.featDim {
		panic(fmt.Sprintf("perfmodel: %d features, model expects %d", len(features), m.featDim))
	}
	x := tensor.NewFromData(1, m.featDim, append([]float64(nil), features...))
	out := m.net.Forward(x)
	trainTime = math.Exp(out.At(0, 0)*m.trainStd + m.trainMean)
	serveTime = math.Exp(out.At(0, 1)*m.serveStd + m.serveMean)
	return trainTime, serveTime
}

// Head selects one of the model's outputs for evaluation.
type Head int

const (
	// TrainHead is the training-performance output.
	TrainHead Head = iota
	// ServeHead is the serving-performance output.
	ServeHead
)

// NRMSE returns the root-mean-square error of the chosen head over the
// samples, normalized by the mean true value — the metric Table 1 reports.
func (m *Model) NRMSE(samples []Sample, head Head) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sq, mean float64
	for _, s := range samples {
		pt, ps := m.Predict(s.Features)
		var pred, truth float64
		if head == TrainHead {
			pred, truth = pt, s.TrainTime
		} else {
			pred, truth = ps, s.ServeTime
		}
		d := pred - truth
		sq += d * d
		mean += truth
	}
	n := float64(len(samples))
	mean /= n
	if mean == 0 {
		return math.Sqrt(sq / n)
	}
	return math.Sqrt(sq/n) / mean
}

func safeLog(v float64) float64 {
	if v <= 0 {
		return math.Log(1e-12)
	}
	return math.Log(v)
}
