package core

import (
	"math"
	"testing"

	"h2onas/internal/datapipe"
	"h2onas/internal/nn"
	"h2onas/internal/space"
	"h2onas/internal/supernet"
	"h2onas/internal/tensor"
)

// NetworkCase is one super-network held to the network contract the
// engine relies on (Network): how to build a master and its traffic,
// and the space-specific tolerances of the checks.
type NetworkCase[B Batch, N Network[B, N]] struct {
	Space    *space.Space
	Baseline space.Assignment
	// Build returns a master initialized from seed and a batch source
	// over traffic seeded alike.
	Build func(seed uint64) (N, func(n int) B)
	// Forward is the network's forward pass, returning the logits.
	Forward func(net N, a space.Assignment, batch B) *tensor.Matrix
	// GradTol is the gradient check's relative tolerance.
	GradTol float64
	// TrainSteps, TrainBatch and MinGain size the convergence check: the
	// baseline trained TrainSteps Adam steps on TrainBatch examples must
	// gain more than MinGain quality on a 512-example batch.
	TrainSteps, TrainBatch int
	MinGain                float64
}

// TestNetworkContract holds the DLRM super-network to the contract.
func TestNetworkContract(t *testing.T) { HarnessNetwork(t, dlrmNetworkCase()) }

// TestNetworkWarmPassAllocs gates the DLRM super-network's warm pass.
func TestNetworkWarmPassAllocs(t *testing.T) { HarnessNetworkWarmPassAllocs(t, dlrmNetworkCase()) }

func dlrmNetworkCase() NetworkCase[*datapipe.Batch, *supernet.Supernet] {
	ds := space.NewDLRMSpace(space.SmallDLRMConfig())
	return NetworkCase[*datapipe.Batch, *supernet.Supernet]{
		Space:    ds.Space,
		Baseline: ds.BaselineAssignment(),
		Build: func(seed uint64) (*supernet.Supernet, func(int) *datapipe.Batch) {
			stream := datapipe.NewStream(datapipe.CTRConfig{
				NumTables: ds.Config.NumTables,
				Vocab:     ds.Config.BaseVocab,
				NumDense:  ds.Config.NumDense,
			}, seed)
			return supernet.New(ds, tensor.NewRNG(seed)), stream.NextBatch
		},
		Forward:    (*supernet.Supernet).Forward,
		GradTol:    1e-4,
		TrainSteps: 60, TrainBatch: 128, MinGain: 0.02,
	}
}

// HarnessNetwork is the body of the super-network contract: the logits'
// shape, finite logits and gradients over random candidates, a
// finite-difference gradient check, replicas that share values but not
// gradients, and convergence on the baseline (skipped under -short).
func HarnessNetwork[B Batch, N Network[B, N]](t *testing.T, c NetworkCase[B, N]) {
	t.Run("shape", func(t *testing.T) {
		net, next := c.Build(1)
		if logits := c.Forward(net, c.Baseline, next(8)); logits.Rows != 8 || logits.Cols != 1 {
			t.Fatalf("logits shape %dx%d, want 8x1", logits.Rows, logits.Cols)
		}
	})

	t.Run("finite", func(t *testing.T) {
		net, next := c.Build(2)
		rng := tensor.NewRNG(3)
		for trial := 0; trial < 40; trial++ {
			a := RandomAssignment(c.Space, rng)
			b := next(4)
			for _, v := range c.Forward(net, a, b).Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("trial %d: non-finite logit for %s", trial, c.Space.Describe(a))
				}
			}
			nn.ZeroGrads(net.Params())
			_, dout := net.Loss(a, b)
			net.Backward(dout)
			for _, p := range net.Params() {
				for _, g := range p.Grad.Data {
					if math.IsNaN(g) || math.IsInf(g, 0) {
						t.Fatalf("trial %d: non-finite grad in %s for %s", trial, p.Name, c.Space.Describe(a))
					}
				}
			}
		}
	})

	t.Run("gradcheck", func(t *testing.T) {
		net, next := c.Build(4)
		a := RandomAssignment(c.Space, tensor.NewRNG(5))
		b := next(4)
		nn.ZeroGrads(net.Params())
		_, dout := net.Loss(a, b)
		net.Backward(dout)
		// Check the largest-gradient element of up to 12 touched params.
		const eps = 1e-6
		checked := 0
		for _, p := range net.Params() {
			if tensor.MaxAbs(p.Grad) == 0 {
				continue
			}
			grad := denseGrad(p)
			idx, best := 0, 0.0
			for i, g := range grad {
				if math.Abs(g) > best {
					idx, best = i, math.Abs(g)
				}
			}
			orig := p.Value.Data[idx]
			p.Value.Data[idx] = orig + eps
			up, _ := net.Loss(a, b)
			p.Value.Data[idx] = orig - eps
			down, _ := net.Loss(a, b)
			p.Value.Data[idx] = orig
			num := (up - down) / (2 * eps)
			if math.Abs(num-grad[idx]) > c.GradTol*math.Max(1, math.Abs(num)) {
				t.Fatalf("param %s grad[%d]: analytic %v vs numeric %v", p.Name, idx, grad[idx], num)
			}
			if checked++; checked == 12 {
				break
			}
		}
		if checked < 6 {
			t.Fatalf("only %d params received gradient for %s", checked, c.Space.Describe(a))
		}
	})

	t.Run("replicate", func(t *testing.T) {
		net, next := c.Build(8)
		rep := net.Replicate(tensor.NewRNG(9))
		net.Params()[0].Value.Data[0] = 42
		if rep.Params()[0].Value.Data[0] != 42 {
			t.Fatal("replica must share parameter values")
		}
		_, dout := rep.Loss(c.Baseline, next(8))
		rep.Backward(dout)
		var repHasGrad bool
		for _, p := range rep.Params() {
			repHasGrad = repHasGrad || tensor.MaxAbs(p.Grad) > 0
		}
		if !repHasGrad {
			t.Fatal("replica backward produced no gradient")
		}
		for _, p := range net.Params() {
			if tensor.MaxAbs(p.Grad) != 0 {
				t.Fatalf("master gradient of %s must stay clear until the reduce", p.Name)
			}
		}
	})

	t.Run("convergence", func(t *testing.T) {
		if testing.Short() {
			t.Skip("single-threaded training loop; nothing for the race detector here")
		}
		net, next := c.Build(6)
		opt := nn.NewAdam(0.003)
		before := net.Quality(c.Baseline, next(512))
		for step := 0; step < c.TrainSteps; step++ {
			nn.ZeroGrads(net.Params())
			_, dout := net.Loss(c.Baseline, next(c.TrainBatch))
			net.Backward(dout)
			nn.ClipGradNorm(net.Params(), 10)
			opt.Step(net.Params())
		}
		if after := net.Quality(c.Baseline, next(512)); after <= before+c.MinGain {
			t.Fatalf("training did not improve quality: %v → %v", before, after)
		}
	})
}

// HarnessNetworkWarmPassAllocs gates a warm pass pair under an arena: a
// forward and backward over a random candidate, then over one that
// differs from it in every decision, must draw no matrix from outside
// the arena and make no heap allocation (the heap count is skipped under
// -race, whose instrumentation allocates on its own).
func HarnessNetworkWarmPassAllocs[B Batch, N Network[B, N]](t *testing.T, c NetworkCase[B, N]) {
	net, next := c.Build(11)
	arena := tensor.NewArena()
	net.SetArena(arena)
	defer func() {
		net.SetArena(nil)
		arena.Drain()
	}()
	a1 := RandomAssignment(c.Space, tensor.NewRNG(12))
	a2 := make(space.Assignment, len(a1))
	for i, d := range c.Space.Decisions {
		a2[i] = (a1[i] + 1) % d.Arity()
	}
	b := next(4)
	pair := func() {
		for _, a := range []space.Assignment{a1, a2} {
			_, dout := net.Loss(a, b)
			net.Backward(dout)
		}
	}
	for range 3 {
		pair()
	}
	before := tensor.MatrixAllocs()
	allocs := testing.AllocsPerRun(4, pair)
	if d := tensor.MatrixAllocs() - before; d != 0 {
		t.Fatalf("warm pass pairs allocated %d matrices outside the arena, want 0", d)
	}
	if allocs != 0 && !raceDetector {
		t.Fatalf("a warm pass pair made %.1f heap allocations, want 0", allocs)
	}
}

// denseGrad returns p's gradient laid out like its value: a row-tracked
// param's packed slots (slot k holds row DirtyRows[k]) scattered to their
// rows, every other row zero.
func denseGrad(p *nn.Param) []float64 {
	if !p.RowSparse {
		return append([]float64(nil), p.Grad.Data...)
	}
	cols := p.Value.Cols
	g := make([]float64, len(p.Value.Data))
	for k, r := range p.DirtyRows {
		copy(g[int(r)*cols:(int(r)+1)*cols], p.Grad.Data[k*cols:(k+1)*cols])
	}
	return g
}
