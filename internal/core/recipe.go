package core

import (
	"slices"

	"h2onas/internal/arch"
	"h2onas/internal/controller"
	"h2onas/internal/datapipe"
	"h2onas/internal/hwsim"
	"h2onas/internal/quality"
	"h2onas/internal/reward"
	"h2onas/internal/space"
)

// The standard DLRM one-shot run is assembled here and nowhere else: the
// CLI, the job service, the façade and the experiments all launch the
// search this file builds, so they run the same search by construction.

// DLRMTraffic returns synthetic CTR traffic shaped like the model: one
// sparse feature per embedding table over the baseline vocabulary, and
// the model's dense features.
func DLRMTraffic(model space.DLRMConfig) datapipe.CTRConfig {
	return datapipe.CTRConfig{NumTables: model.NumTables, Vocab: model.BaseVocab, NumDense: model.NumDense}
}

// NewDLRMSearcher assembles the standard DLRM search over ds on chip:
// simulator-backed objectives (training step time as primary, serving
// memory as secondary), targets relative to the simulated baseline
// architecture — latencyFactor scales the step-time target, e.g. 0.85
// demands a 15 % faster model — and the two-objective reward of the
// given kind. The stream is the caller's because its seed is.
func NewDLRMSearcher(ds *space.DLRMSpace, chip hwsim.Chip, kind reward.Kind, latencyFactor float64, stream *datapipe.Stream) (*Searcher, error) {
	obj := &DLRMObjectives{DS: ds, Chip: chip}
	base := obj.BaselinePerf()
	rw, err := reward.New(kind,
		reward.Objective{Name: "train_step_time", Target: base[0] * latencyFactor, Beta: -2},
		reward.Objective{Name: "serving_memory", Target: base[1], Beta: -1},
	)
	if err != nil {
		return nil, err
	}
	return &Searcher{DS: ds, Reward: rw, Perf: obj.Perf, Stream: stream}, nil
}

// OneShotConfig returns a run of the given size with the hyper-parameters
// every weight-sharing search in this repo launches with, DLRM and
// transformer alike (the CLI, the job service, the experiments and the
// examples). DefaultConfig is a different, slower controller setting that
// the benchmark workloads are pinned to.
func OneShotConfig(shards, steps, batch, warmup int, seed uint64) Config {
	return Config{
		Shards: shards, Steps: steps, BatchSize: batch, WarmupSteps: warmup,
		WeightLR:   0.003,
		Controller: controller.Config{LearningRate: 0.2, BaselineMomentum: 0.9, EntropyWeight: 1e-4},
		Seed:       seed,
	}
}

// VisionObjectives prices the candidates of an analytic CNN or hybrid-ViT
// search (Sections 6–7): one training step on 128 chips from the
// simulator, and top-1 accuracy on Dataset from the calibrated quality
// model. Exactly one of CNN and ViT is set. It is the only assembly of a
// vision candidate's price; reward shaping (the reference candidate, the
// weights, the targets) is the caller's.
//
// It remembers its last assignment and that evaluation, so the
// Quality(a), Perf(a) pair AnalyticSearcher makes per candidate costs one
// decode, one graph build and one simulation, all into storage it reuses.
// It serves one goroutine.
type VisionObjectives struct {
	CNN     *space.CNNSpace
	ViT     *space.ViTSpace
	Chip    hwsim.Chip
	Dataset quality.Dataset

	last space.Assignment // by value; nil before the first evaluation
	ev   VisionEval
	cnn  space.CNNArch
	vit  space.ViTArch
	g    arch.Graph
}

// VisionEval is one priced vision candidate.
type VisionEval struct {
	Train    hwsim.Result // one training step on 128 chips
	Params   float64
	Accuracy float64 // top-1 %
}

// Evaluate prices a. The traits are the ones the space decides: Params
// and resolution against the baseline's for both; for CNN also the conv
// depth against the baseline's and the majority block activation, for
// ViT the first transformer block's activation.
func (o *VisionObjectives) Evaluate(a space.Assignment) VisionEval {
	if o.last != nil && slices.Equal(a, o.last) {
		return o.ev
	}
	var tr quality.Traits
	if o.CNN != nil {
		cfg := o.CNN.Config
		o.CNN.DecodeInto(a, &o.cnn)
		o.CNN.GraphInto(o.cnn, &o.g)
		swish := 0
		for i, st := range cfg.Stages {
			tr.ConvDepth += o.cnn.Depths[i]
			tr.BaseConvDepth += st.Depth
			if o.cnn.Blocks[i].Act == "swish" {
				swish++
			}
		}
		tr.Activation = "relu"
		if swish*2 >= len(cfg.Stages) {
			tr.Activation = "swish"
		}
		tr.Resolution, tr.BaseResolution = o.cnn.Resolution, cfg.Resolution
	} else {
		o.ViT.DecodeInto(a, &o.vit)
		o.ViT.GraphInto(o.vit, &o.g)
		tr.Resolution, tr.BaseResolution, tr.Activation = o.vit.Resolution, o.ViT.Config.Resolution, o.vit.TFMBlocks[0].Act
	}
	tr.Params = o.g.Params
	o.ev = VisionEval{
		Train:    hwsim.Simulate(&o.g, o.Chip, hwsim.Options{Mode: hwsim.Training, Chips: 128}),
		Params:   o.g.Params,
		Accuracy: quality.Accuracy(tr, o.Dataset),
	}
	o.last = append(o.last[:0], a...)
	return o.ev
}
