package supernet

import (
	"testing"

	"h2onas/internal/nn"
	"h2onas/internal/tensor"
)

// TestSteadyStateStepZeroMatrixAllocs is the allocation gate for the hot
// path: once the per-shard arena and the optimizer moments are warm, a
// full search step — replica forward/backward, gradient reduction, clip,
// Adam, gradient clear — must perform zero heap allocations. The data
// plane (batch synthesis) is excluded by pre-drawing the batch; real
// steps draw fresh batches, which is the pipeline's (prefetched,
// off-hot-path) job. The whole step, data plane and coordinator
// included, is gated in internal/core by TestSteadyStateSearchStepAllocs.
func TestSteadyStateStepZeroMatrixAllocs(t *testing.T) {
	ds, master, stream := newSmall(t, 7)
	rng := tensor.NewRNG(9)
	replica := master.Replicate(rng.Split())
	arena := tensor.NewArena()
	replica.SetArena(arena)
	defer func() {
		replica.SetArena(nil)
		arena.Release()
		arena.Drain()
	}()
	opt := nn.NewAdam(0.003)
	spine := nn.NewSpine(master.Params(), opt, 10)
	batch := stream.NextBatch(32)
	// Alternate two assignments so the gate also covers the buffer-shape
	// churn of switching candidates, not just a perfectly static subnet.
	a1 := randomAssignment(ds, rng)
	a2 := randomAssignment(ds, rng)
	replicaParams := [][]*nn.Param{replica.Params()}

	// The α-before-W phase latch is one-way per batch, so the reused batch
	// skips UseForArch/UseForWeights — they are bookkeeping, not compute,
	// and the search loop (not this gate) owns that invariant.
	step := func(a []int) {
		_, dout := replica.Loss(a, batch)
		replica.Backward(dout)
		spine.Reduce(replicaParams)
		spine.ClipStep()
	}
	// Warm: arena pools fill, Adam lazily allocates moments for every
	// param both assignments touch.
	for i := 0; i < 3; i++ {
		step(a1)
		step(a2)
	}

	before := tensor.MatrixAllocs()
	allocs := testing.AllocsPerRun(10, func() {
		step(a1)
		step(a2)
	})
	if d := tensor.MatrixAllocs() - before; d != 0 {
		t.Fatalf("steady-state step allocated %d matrices, want 0", d)
	}
	if allocs != 0 && !raceDetector {
		t.Fatalf("steady-state step made %.1f heap allocations per run, want 0", allocs)
	}
}

// TestWarmupStepZeroMatrixAllocs extends the allocation gate to the
// warmup schedule. Warmup steps differ from steady state in which
// sub-networks they train — every even shard runs the maximal (sandwich)
// candidate, so warmup steps alternate the largest buffers in the space
// with sampled ones — not in which machinery they run on. The arena,
// worker pool and *Into kernels must absorb that shape churn exactly as
// they absorb steady state: after a warm-up of the pools, a
// maximal+sampled step pair performs zero heap and zero matrix-pool
// allocations. (Warmup wall-time is dominated by the maximal candidate's
// arithmetic — see docs/PERFORMANCE.md — not by allocation.)
func TestWarmupStepZeroMatrixAllocs(t *testing.T) {
	ds, master, stream := newSmall(t, 8)
	rng := tensor.NewRNG(10)
	replica := master.Replicate(rng.Split())
	arena := tensor.NewArena()
	replica.SetArena(arena)
	defer func() {
		replica.SetArena(nil)
		arena.Release()
		arena.Drain()
	}()
	opt := nn.NewAdam(0.003)
	spine := nn.NewSpine(master.Params(), opt, 10)
	batch := stream.NextBatch(32)

	// The maximal candidate every warmup sandwich shard trains: argmax of
	// each decision's values (mirrors core.MaxAssignment, which lives
	// above this package).
	maxA := make([]int, len(ds.Space.Decisions))
	for i, d := range ds.Space.Decisions {
		for j := 1; j < len(d.Values); j++ {
			if d.Values[j] > d.Values[maxA[i]] {
				maxA[i] = j
			}
		}
	}
	sampled := randomAssignment(ds, rng)
	replicaParams := [][]*nn.Param{replica.Params()}

	step := func(a []int) {
		_, dout := replica.Loss(a, batch)
		replica.Backward(dout)
		spine.Reduce(replicaParams)
		spine.ClipStep()
	}
	for i := 0; i < 3; i++ {
		step(maxA)
		step(sampled)
	}

	before := tensor.MatrixAllocs()
	allocs := testing.AllocsPerRun(10, func() {
		step(maxA)
		step(sampled)
	})
	if d := tensor.MatrixAllocs() - before; d != 0 {
		t.Fatalf("warmup step allocated %d matrices, want 0", d)
	}
	if allocs != 0 && !raceDetector {
		t.Fatalf("warmup step made %.1f heap allocations per run, want 0", allocs)
	}
}

// TestParallelLayerPassZeroAllocs is the allocation gate for the layers'
// fan-out path, which the two gates above (serial layer loops) never
// reach: with a worker budget and a batch past the dispatch grain, the
// masked-affine and embedding loops run as chunks on the kernel pool, and
// a warm forward/backward must still allocate nothing — the loop is bound
// to its layer once, not per pass.
func TestParallelLayerPassZeroAllocs(t *testing.T) {
	ds, master, stream := newSmall(t, 9)
	replica := master.Replicate(tensor.NewRNG(11))
	arena := tensor.NewArena()
	replica.SetArena(arena)
	replica.SetWorkers(4)
	defer func() {
		replica.SetArena(nil)
		arena.Drain()
	}()
	batch := stream.NextBatch(256)
	maxA := make([]int, len(ds.Space.Decisions))
	for i := range ds.Space.Decisions {
		maxA[i], _ = ds.Space.Decisions[i].Max()
	}
	pass := func() {
		_, dout := replica.Loss(maxA, batch)
		replica.Backward(dout)
		nn.ZeroGrads(replica.Params())
	}
	for i := 0; i < 3; i++ {
		pass()
	}
	before := tensor.MatrixAllocs()
	allocs := testing.AllocsPerRun(10, pass)
	if d := tensor.MatrixAllocs() - before; d != 0 {
		t.Fatalf("parallel pass allocated %d matrices, want 0", d)
	}
	if allocs != 0 && !raceDetector {
		t.Fatalf("parallel pass made %.1f heap allocations per run, want 0", allocs)
	}
}
