package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"h2onas/internal/hwsim"
	"h2onas/internal/space"
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

// TestDLRMPerfConcurrentCallers costs candidates from several goroutines
// at once (they share the scratch pool) and requires every result to
// equal the serial one, and the returned slices to stay the caller's.
func TestDLRMPerfConcurrentCallers(t *testing.T) {
	ds := space.NewDLRMSpace(space.SmallDLRMConfig())
	obj := &DLRMObjectives{DS: ds, Chip: hwsim.TPUv4()}
	rng := tensor.NewRNG(3)
	cands := make([]space.Assignment, 32)
	want := make([][]float64, len(cands))
	for i := range cands {
		cands[i] = RandomAssignment(ds.Space, rng)
		want[i] = obj.Perf(cands[i])
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range cands {
				i := (k + 7*w) % len(cands)
				got := obj.Perf(cands[i])
				if len(got) != 2 || got[0] != want[i][0] || got[1] != want[i][1] {
					t.Errorf("candidate %d: concurrent Perf %v, serial %v", i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
	first := want[0][0]
	obj.Perf(cands[1])
	if want[0][0] != first {
		t.Fatal("a later Perf call overwrote a returned slice")
	}
}

// searchAllocs runs an in-process 8-shard DLRM search of the given length
// and returns the heap allocations it made.
func searchAllocs(t *testing.T, steps int) uint64 {
	t.Helper()
	s := benchmarkSearcher(29)
	cfg := DefaultConfig() // 8 shards, batch 64
	cfg.WarmupSteps, cfg.Steps, cfg.Seed = 8, steps, 29
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
// the 8-shard DLRM search may make: the measured 64 (62–64 at GOMAXPROCS
// 1, 2 and 4) plus 10 %. What remains is what a step must hand out: eight
// batches of five allocations each (header, dense+label values, table
// rows, bag ids, the per-table slice), and per policy shard the sampled
// assignment, its copy in the candidate log and its Perf result.
const stepAllocBudget = 70

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

// perfSink keeps BenchmarkDLRMPerf's result alive.
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
