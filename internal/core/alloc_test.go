package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"h2onas/internal/datapipe"
	"h2onas/internal/hwsim"
	"h2onas/internal/reward"
	"h2onas/internal/space"
	"h2onas/internal/supernet"
	"h2onas/internal/tensor"
)

// perfDigest hashes the bits of Perf over the baseline and 64 random
// candidates of the space.
func perfDigest(cfg space.DLRMConfig) string {
	ds := space.NewDLRMSpace(cfg)
	obj := &DLRMObjectives{DS: ds, Chip: hwsim.TPUv4()}
	h := sha256.New()
	var buf [8]byte
	add := func(a space.Assignment) {
		for _, v := range obj.Perf(a) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	add(ds.BaselineAssignment())
	rng := tensor.NewRNG(5)
	for range 64 {
		add(RandomAssignment(ds.Space, rng))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// TestDLRMPerfDigestUnmoved pins the step-time and serving-memory bits of
// DLRMObjectives.Perf to the values captured before candidate costing
// reused its decode, graph and fusion buffers.
func TestDLRMPerfDigestUnmoved(t *testing.T) {
	for _, c := range []struct {
		cfg  space.DLRMConfig
		want string
	}{
		{space.SmallDLRMConfig(), "6b791b69c018aaab5d50d22d572d47cc"},
		{space.DefaultDLRMConfig(), "8e84d51d0536b8bca5c50a9747fed743"},
	} {
		if got := perfDigest(c.cfg); got != c.want {
			t.Errorf("%s: Perf digest %s, want %s", c.cfg.Name, got, c.want)
		}
	}
}

// TestDLRMPerfKeepsReturnedSlices: Perf decodes and builds every
// candidate into the objectives' own arch and graph, but the slice it
// returns is the caller's, so a later call does not overwrite it.
func TestDLRMPerfKeepsReturnedSlices(t *testing.T) {
	ds := space.NewDLRMSpace(space.SmallDLRMConfig())
	obj := &DLRMObjectives{DS: ds, Chip: hwsim.TPUv4()}
	rng := tensor.NewRNG(3)
	a, b := RandomAssignment(ds.Space, rng), RandomAssignment(ds.Space, rng)
	got := obj.Perf(a)
	want := slices.Clone(got)
	if slices.Equal(obj.Perf(b), want) {
		t.Fatal("both candidates price alike, so an overwrite would not show")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("a later Perf call overwrote a returned slice: %v, was %v", got, want)
	}
}

// searchAllocs runs an in-process 8-shard DLRM search of the given length
// and returns the heap allocations it made. Two collections first empty
// the global matrix pools (a sync.Pool survives one), so each run's arenas
// start from nothing whatever ran before it. With one, the longer run
// reused the buffers the shorter one had drained, and the gate read a
// third of the per-step count a search makes from cold pools.
func searchAllocs(t *testing.T, steps int) uint64 {
	t.Helper()
	s := benchmarkSearcher(29)
	cfg := DefaultConfig() // 8 shards, batch 64
	cfg.WarmupSteps, cfg.Steps, cfg.Seed = 8, steps, 29
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := s.Search(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// stepAllocBudget is the heap allocations a steady-state sampled step of
// the 8-shard DLRM search may make: the measured 19–23 (GOMAXPROCS 1, 2,
// 3, 4 and 8) plus about 10 %. What remains is three allocations per
// policy shard, 21 for the seven: the sampled assignment (Sample), its
// Perf result and its copy in the candidate log (eval). The rest is an
// arena's first buffer in a bucket that no earlier step needed.
const stepAllocBudget = 26

// TestSteadyStateSearchStepAllocs is the allocation gate for the whole
// step plane — batch synthesis, policy sampling and update, candidate
// costing, reward and candidate bookkeeping, the shard fan-out and the
// spine. Two same-seed searches differ only in their number of sampled
// steps, so the difference of their allocation counts divided by the
// difference of their lengths is the per-step cost, free of construction
// and final evaluation. The race detector allocates on its own, so the
// gate is skipped under -race.
func TestSteadyStateSearchStepAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's own allocations swamp the count")
	}
	const short, long = 40, 120
	a, b := searchAllocs(t, short), searchAllocs(t, long)
	perStep := (float64(b) - float64(a)) / (long - short)
	t.Logf("%.0f heap allocations per sampled step (budget %d)", perStep, stepAllocBudget)
	if perStep > stepAllocBudget {
		t.Fatalf("steady-state step made %.0f heap allocations, budget %d", perStep, stepAllocBudget)
	}
}

// heapBytes returns the bytes of heap f allocates.
func heapBytes(f func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// buildBytes is what building the small DLRM super-network and the two
// replicas of a serve-shaped job allocates.
func buildBytes() uint64 {
	ds := space.NewDLRMSpace(space.SmallDLRMConfig())
	return heapBytes(func() {
		rng := tensor.NewRNG(3)
		master := supernet.New(ds, rng.Split())
		for range 2 {
			master.Replicate(rng.Split())
		}
	})
}

// serveSearchBytes is what one search of a served job's default shape —
// 2 shards, 24 steps, batch 32, 8 warm-up steps — allocates, from
// building its networks to its final evaluation.
func serveSearchBytes(t *testing.T) uint64 {
	model := space.SmallDLRMConfig()
	ds := space.NewDLRMSpace(model)
	s, err := NewDLRMSearcher(ds, hwsim.TPUv4(), reward.ReLU, 1, datapipe.NewStream(DLRMTraffic(model), 3))
	if err != nil {
		t.Fatal(err)
	}
	return heapBytes(func() {
		if _, err := s.Search(OneShotConfig(2, 24, 32, 8, 3)); err != nil {
			t.Fatal(err)
		}
	})
}

// The heap bytes a serve-shaped build and search may allocate: the
// measured 8.1 MB and 22.8 MB (GOMAXPROCS 1, 2 and 4) plus about 10 %.
// Before row-tracked gradients and row-wise Adam moments were stored
// packed, the build took 31.6 MB — a dense gradient for every embedding
// table on the master and on each replica — and the search 51.9 MB; now a
// gradient holds the rows a step writes and the moments the rows a
// search steps.
const (
	buildByteBudget       = 9_000_000
	serveSearchByteBudget = 25_000_000
)

// TestServeShapedSearchBytes is the bytes gate beside the allocation
// gates: a build that allocates a full-size gradient per table again, or
// a search whose optimizer allocates moments for rows it never steps,
// trips it. Skipped under -race, whose instrumentation allocates.
func TestServeShapedSearchBytes(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's own allocations swamp the count")
	}
	build, search := buildBytes(), serveSearchBytes(t)
	t.Logf("build %.1f MB (budget %.1f), search %.1f MB (budget %.1f)", float64(build)/1e6, buildByteBudget/1e6, float64(search)/1e6, serveSearchByteBudget/1e6)
	if build > buildByteBudget {
		t.Errorf("supernet.New plus 2 replicas allocated %d bytes, budget %d", build, buildByteBudget)
	}
	if search > serveSearchByteBudget {
		t.Errorf("a serve-shaped search allocated %d bytes, budget %d", search, serveSearchByteBudget)
	}
}

// perfSink keeps the result of a measured PerfFunc alive.
var perfSink []float64

// BenchmarkDLRMPerf measures one candidate costing of the small DLRM
// space: decode, graph build, fusion and simulation.
func BenchmarkDLRMPerf(b *testing.B) {
	ds := space.NewDLRMSpace(space.SmallDLRMConfig())
	obj := &DLRMObjectives{DS: ds, Chip: hwsim.TPUv4()}
	rng := tensor.NewRNG(1)
	cands := make([]space.Assignment, 16)
	for i := range cands {
		cands[i] = RandomAssignment(ds.Space, rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perfSink = obj.Perf(cands[i%len(cands)])
	}
}

// tunasMatrixAllocs runs the TuNAS baseline on TestGoldenTuNAS's config
// for the given number of steps and returns the matrix allocations it
// made. Two collections first empty the global matrix pools (a sync.Pool
// survives one), so every run's arena starts from nothing whatever ran
// before it.
func tunasMatrixAllocs(t *testing.T, steps int) int64 {
	t.Helper()
	s, _ := testSearcher(t, reward.Absolute, 1.0, 8)
	cfg := fastConfig(8)
	cfg.Steps, cfg.WarmupSteps = steps, 5
	runtime.GC()
	runtime.GC()
	before := tensor.MatrixAllocs()
	if _, err := s.TuNASSearch(cfg, datapipe.NewStream(s.Stream.Config(), 1008)); err != nil {
		t.Fatal(err)
	}
	return tensor.MatrixAllocs() - before
}

// TestTuNASHalfStepZeroMatrixAllocs gates the baseline's master arena: a
// half-step recycles its activations, so a run ten times longer makes no
// more matrix allocations than the arena's first use of the shapes only
// it sampled — a few dozen whatever the length (218–233 for 5 to 100
// steps), not a cost per half-step. Without the arena every half-step
// allocated its activations, 30 matrices at 4 shards.
func TestTuNASHalfStepZeroMatrixAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("110 TuNAS steps")
	}
	const short, long = 10, 100
	extra := tunasMatrixAllocs(t, long) - tunasMatrixAllocs(t, short)
	if perHalfStep := float64(extra) / (2 * (long - short) * 4); perHalfStep >= 0.1 {
		t.Fatalf("a run %d steps longer made %d more matrix allocations (%.2f per half-step), want a steady state that makes none", long-short, extra, perHalfStep)
	}
}
