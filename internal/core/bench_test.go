package core

import (
	"testing"

	"h2onas/internal/controller"
	"h2onas/internal/datapipe"
	"h2onas/internal/hwsim"
	"h2onas/internal/nn"
	"h2onas/internal/reward"
	"h2onas/internal/space"
	"h2onas/internal/supernet"
	"h2onas/internal/tensor"
)

// benchmarkSearcher builds the default small-DLRM searcher used by the
// step-throughput benchmarks (the same construction as testSearcher,
// without a testing.T).
func benchmarkSearcher(seed uint64) *Searcher {
	ds := space.NewDLRMSpace(space.SmallDLRMConfig())
	obj := &DLRMObjectives{DS: ds, Chip: hwsim.TPUv4()}
	base := obj.BaselinePerf()
	rw := reward.MustNew(reward.ReLU,
		reward.Objective{Name: "train_step_time", Target: base[0], Beta: -2},
		reward.Objective{Name: "serving_memory", Target: base[1], Beta: -1},
	)
	stream := datapipe.NewStream(datapipe.CTRConfig{
		NumTables: ds.Config.NumTables,
		Vocab:     ds.Config.BaseVocab,
		NumDense:  ds.Config.NumDense,
	}, seed)
	return &Searcher{DS: ds, Reward: rw, Perf: obj.Perf, Stream: stream}
}

// BenchmarkSearchStep measures end-to-end unified single-step throughput
// at the default configuration (8 shards, batch 64) over the small DLRM
// space: one benchmark iteration is one full search step, including
// sampling, the shard fan-out, the cross-shard policy and weight updates,
// and reward/perf evaluation. A micro-benchmark for work in progress: the
// committed numbers are benchmark/'s dlrm_search workload.
func BenchmarkSearchStep(b *testing.B) {
	s := benchmarkSearcher(7)
	cfg := DefaultConfig() // 8 shards, batch 64
	cfg.Steps = b.N
	cfg.WarmupSteps = 0
	b.ResetTimer()
	if _, err := s.Search(cfg); err != nil {
		b.Fatal(err)
	}
}

// savedGrads snapshots a param list's dirty gradients so a benchmark can
// restore the exact post-backward state before every measured iteration.
type savedGrads struct {
	idx  []int
	data [][]float64
	rows [][]int32
}

func saveDirty(params []*nn.Param) savedGrads {
	var sg savedGrads
	for i, p := range params {
		if p.Dirty {
			sg.idx = append(sg.idx, i)
			sg.data = append(sg.data, append([]float64(nil), p.Grad.Data...))
			sg.rows = append(sg.rows, append([]int32(nil), p.DirtyRows...))
		}
	}
	return sg
}

func (sg savedGrads) restore(params []*nn.Param) {
	for k, i := range sg.idx {
		p := params[i]
		copy(p.Grad.Data, sg.data[k])
		// Re-mark the dirty rows too: the spine's row-aware passes walk
		// only the recorded rows of row-sparse params.
		p.ClearRows()
		for _, r := range sg.rows[k] {
			p.MarkRow(int(r))
		}
		p.Dirty = true
	}
}

// benchmarkSpineState builds the spine benchmarks' fixture: a master
// supernet, shards replicas that each ran one real forward/backward on a
// policy-sampled candidate, and the saved per-replica dirty gradients.
func benchmarkSpineState(shards int) (*supernet.Supernet, [][]*nn.Param, []savedGrads, *nn.Spine) {
	s := benchmarkSearcher(13)
	rng := tensor.NewRNG(13)
	master := supernet.New(s.DS, rng.Split())
	ctrl := controller.New(s.DS.Space, controller.Config{LearningRate: 0.1, BaselineMomentum: 0.9})
	replicaParams := make([][]*nn.Param, shards)
	saved := make([]savedGrads, shards)
	for i := 0; i < shards; i++ {
		r := master.Replicate(rng.Split())
		replicaParams[i] = r.Params()
		batch := s.Stream.NextBatch(64)
		batch.UseForArch()
		_, dout := r.Loss(ctrl.Policy.Sample(rng), batch)
		batch.UseForWeights()
		r.Backward(dout)
		saved[i] = saveDirty(replicaParams[i])
	}
	spine := nn.NewSpine(master.Params(), nn.NewAdam(0.003), 10)
	return master, replicaParams, saved, spine
}

// BenchmarkReduceGrads measures the spine's parallel cross-shard gradient
// reduce in isolation (8 shards, real post-backward gradient sparsity).
// Each iteration restores the replicas' dirty gradients untimed, then
// times one Spine.Reduce.
func BenchmarkReduceGrads(b *testing.B) {
	master, replicaParams, saved, spine := benchmarkSpineState(8)
	masterParams := master.Params()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		for _, p := range masterParams {
			if p.Dirty {
				p.Grad.Zero()
				p.ClearRows()
				p.Dirty = false
			}
		}
		for i := range saved {
			saved[i].restore(replicaParams[i])
		}
		b.StartTimer()
		spine.Reduce(replicaParams)
	}
}

// BenchmarkClipAdamStep measures the fused clip+Adam pass in isolation:
// global-norm partials, clip scale, moment update, weight update and
// gradient clear over the dirty worklist of an 8-shard reduce. Each
// iteration restores the reduced master gradients untimed, then times
// one Spine.ClipStep.
func BenchmarkClipAdamStep(b *testing.B) {
	master, replicaParams, _, spine := benchmarkSpineState(8)
	masterParams := master.Params()
	spine.Reduce(replicaParams)
	reduced := saveDirty(masterParams)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		reduced.restore(masterParams)
		spine.Reduce(nil) // rebuild the dirty worklist from the flags
		b.StartTimer()
		spine.ClipStep()
	}
}

// BenchmarkSearchStepWarmup measures warmup-phase steps (weight training
// only, no policy update) at the default configuration.
func BenchmarkSearchStepWarmup(b *testing.B) {
	s := benchmarkSearcher(11)
	cfg := DefaultConfig()
	cfg.Steps = 1
	cfg.WarmupSteps = b.N
	b.ResetTimer()
	if _, err := s.Search(cfg); err != nil {
		b.Fatal(err)
	}
}
