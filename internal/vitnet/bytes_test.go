package vitnet

import (
	"runtime"
	"testing"

	"h2onas/internal/controller"
	"h2onas/internal/core"
	"h2onas/internal/datapipe"
	"h2onas/internal/hwsim"
	"h2onas/internal/reward"
	"h2onas/internal/space"
)

// vitSearchBytes is the heap one search of the vit_search benchmark
// workload's shape allocates — 4 shards, batch 16, 5 warm-up and 40
// sampled steps — under a budget of workers cores. Two collections first
// empty the global matrix pools (a sync.Pool survives one), so the
// search's arenas start from nothing whatever ran before it.
func vitSearchBytes(t *testing.T, workers int) uint64 {
	t.Helper()
	vs := space.NewTransformerSpace(space.SmallViTConfig())
	chip := hwsim.TPUv4()
	perf := func(a space.Assignment) []float64 {
		r := hwsim.Simulate(vs.Graph(vs.Decode(a)), chip, hwsim.Options{Mode: hwsim.Training})
		return []float64{r.StepTime}
	}
	s := &Searcher{
		VS:     vs,
		Reward: reward.MustNew(reward.ReLU, reward.Objective{Name: "train_step_time", Target: perf(vs.BaselineAssignment())[0], Beta: -2}),
		Perf:   perf,
		Stream: datapipe.NewSeqStream(datapipe.DefaultSeqConfig(), 7),
	}
	cfg := core.Config{
		Shards: 4, BatchSize: 16, WarmupSteps: 5, Steps: 40, Workers: workers, Seed: 7,
		WeightLR:   0.003,
		Controller: controller.Config{LearningRate: 0.2, BaselineMomentum: 0.9, EntropyWeight: 1e-4},
	}
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := s.Search(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// vitSearchByteBudget is the heap a vit_search-shaped search at 2 workers
// may allocate: the measured 78.3–78.9 MB (GOMAXPROCS 1, 2 and 4) plus
// about 10 %. While every replica owned an arena the search allocated
// 148.3 MB at any budget: each of the four arenas kept, bucket by bucket,
// the most any width it ran had needed. Now the two pool workers own one
// arena each, which borrows a bucket up, so the arenas follow the cores
// (51.0 MB at 1 worker, 132 MB at 4).
const vitSearchByteBudget = 87_000_000

// TestViTShapedSearchBytes is the activation-memory gate of the
// transformer search: an arena per replica again, or an arena that grows
// a buffer per width instead of borrowing one bucket up, trips it.
// Skipped under -race, whose instrumentation allocates.
func TestViTShapedSearchBytes(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's own allocations swamp the count")
	}
	got := vitSearchBytes(t, 2)
	t.Logf("%.1f MB at 2 workers (budget %.1f)", float64(got)/1e6, vitSearchByteBudget/1e6)
	if got > vitSearchByteBudget {
		t.Fatalf("a vit_search-shaped search allocated %d bytes, budget %d", got, vitSearchByteBudget)
	}
}
