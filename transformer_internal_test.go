package h2onas

import (
	"math"
	"testing"

	"h2onas/internal/core"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

// transformerCandidates returns the small transformer space
// SearchTransformer's tests and examples price and 64 random candidates
// of it.
func transformerCandidates() (*space.ViTSpace, []space.Assignment) {
	vs := space.NewTransformerSpace(SmallViTConfig())
	rng := tensor.NewRNG(13)
	cands := make([]space.Assignment, 64)
	for i := range cands {
		cands[i] = core.RandomAssignment(vs.Space, rng)
	}
	return vs, cands
}

// TestTransformerPerfMatchesFreshGraph requires every step time priced
// through the reused arch and graph to equal, bit for bit, the one of a
// freshly decoded and built graph.
func TestTransformerPerfMatchesFreshGraph(t *testing.T) {
	vs, cands := transformerCandidates()
	perf := transformerPerf(vs, TPUv4())
	for i, a := range cands {
		want := Simulate(vs.Graph(vs.Decode(a)), TPUv4(), SimOptions{Mode: Training, Chips: 8}).StepTime
		if got := perf(a); len(got) != 1 || math.Float64bits(got[0]) != math.Float64bits(want) {
			t.Errorf("candidate %d: reused graph %v, fresh graph %v", i, got, want)
		}
	}
}

// TestTransformerPerfWarmAllocs requires a warm call to allocate only the
// slice it returns.
func TestTransformerPerfWarmAllocs(t *testing.T) {
	vs, cands := transformerCandidates()
	perf := transformerPerf(vs, TPUv4())
	for _, a := range cands {
		perf(a) // arch and graph sized to the largest candidate
	}
	k := 0
	if allocs := testing.AllocsPerRun(64, func() {
		perf(cands[k%len(cands)])
		k++
	}); allocs != 1 {
		t.Errorf("warm perf makes %.1f allocations per call, want 1 (its result)", allocs)
	}
}
