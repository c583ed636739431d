package core

import (
	"h2onas/internal/controller"
	"h2onas/internal/datapipe"
	"h2onas/internal/hwsim"
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
