package perfmodel

import (
	"math"
	"runtime"
	"testing"

	"h2onas/internal/nn"
	"h2onas/internal/tensor"
)

// allocModel is a warm model of the benchmark's shape (two hidden layers
// of 128), big enough that its training passes fan out at GOMAXPROCS ≥ 2.
func allocModel(t *testing.T) (*Model, []Sample) {
	t.Helper()
	if raceDetector {
		t.Skip("the race detector's own allocations swamp the count")
	}
	m := New(testFeatDim, []int{128, 128}, 9)
	samples := synthSamples(200, testFeatDim, 1.0, 90)
	if err := m.Pretrain(samples, TrainConfig{Epochs: 1, BatchSize: 64, LR: 1e-3, Seed: 91}); err != nil {
		t.Fatal(err)
	}
	return m, samples
}

// TestPredictAllocs: a warm Predict copies its features into the model's
// own input row and runs every layer in buffers the model and its layers
// reuse, so it allocates nothing.
func TestPredictAllocs(t *testing.T) {
	m, samples := allocModel(t)
	k := 0
	if allocs := testing.AllocsPerRun(100, func() {
		m.Predict(samples[k%len(samples)].Features)
		k++
	}); allocs != 0 {
		t.Fatalf("warm Predict makes %.2f allocations, want 0", allocs)
	}
}

// TestWarmTrainPassAllocs: a training pass draws every layer's outputs
// and gradients from the model's one arena, which the pass releases
// first, so 200 warm passes (forward, loss gradient, backward) reuse the
// first pass's buffers and make no matrix allocation, however the
// scheduler moves the goroutine between Ps.
func TestWarmTrainPassAllocs(t *testing.T) {
	m, samples := allocModel(t)
	const batch = 64
	x, y, dout := tensor.New(batch, testFeatDim), tensor.New(batch, 2), tensor.New(batch, 2)
	for i := range batch {
		s := samples[i]
		copy(x.Row(i), s.Features)
		y.Set(i, 0, math.Log(s.TrainTime))
		y.Set(i, 1, math.Log(s.ServeTime))
	}
	pass := func() {
		nn.MSE{}.EvalInto(m.forward(x), y, dout)
		m.backward(dout)
	}
	pass()
	before := tensor.MatrixAllocs()
	for range 200 {
		pass()
	}
	if n := tensor.MatrixAllocs() - before; n != 0 {
		t.Fatalf("200 warm training passes made %d matrix allocations, want 0", n)
	}
}

// TestTrainStepAllocs: a FineTune call sizes its batch buffers, Adam
// moments and permutation once, so 32 epochs (4 batches each, the last
// short) allocate what one epoch does, give or take less than half an
// allocation per extra epoch: one per epoch or per batch fails. It
// measures at the process's GOMAXPROCS, so the fanned-out layer loops are
// counted too. Each length takes the least of three calls. A call drains
// the model's arena into the shared matrix pool when it returns, and the
// next call's first pass takes the buffers back; that pool is a
// sync.Pool, which keeps a buffer put on one P out of reach of a
// goroutine that has moved to another, so now and then a first pass
// misses and allocates a buffer afresh. Later passes reuse the arena's
// own buffers and never reach the pool.
func TestTrainStepAllocs(t *testing.T) {
	m, samples := allocModel(t)
	least := func(epochs int) uint64 {
		n := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := m.FineTune(samples, TrainConfig{Epochs: epochs, BatchSize: 64, LR: 1e-4, Seed: 92}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			n = min(n, after.Mallocs-before.Mallocs)
		}
		return n
	}
	const short, long = 1, 32
	a, b := least(short), least(long)
	t.Logf("FineTune allocates %d times over %d epoch, %d over %d", a, short, b, long)
	if b > a && b-a >= (long-short)/2 {
		t.Fatalf("FineTune allocates %d times over %d epochs and %d over %d: an epoch or a batch allocates", b, long, a, short)
	}
}
