package hwsim

import (
	"testing"
	"testing/quick"

	"h2onas/internal/arch"
	"h2onas/internal/tensor"
)

// Physical-plausibility properties of the simulator: whatever the inputs,
// simulated time must respect resource bounds and monotonicity.

func randomDenseGraph(rng *tensor.RNG) *arch.Graph {
	batch := 1 << (rng.Intn(8) + 2) // 4..512
	g := &arch.Graph{Name: "p", Batch: batch, DTypeBytes: 2 * (rng.Intn(2) + 1)}
	layers := rng.Intn(5) + 1
	in := 1 << (rng.Intn(6) + 4)
	for i := 0; i < layers; i++ {
		out := 1 << (rng.Intn(6) + 4)
		arch.DenseOp(g.Push(), "fc", batch, in, out, g.DTypeBytes)
		if rng.Intn(2) == 0 {
			arch.ElementwiseOp(g.Push(), "act", batch*out, 1, g.DTypeBytes)
		}
		in = out
	}
	return g
}

func TestSimTimeBoundedByResourcesProperty(t *testing.T) {
	chip := TPUv4()
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		g := randomDenseGraph(rng)
		r := Simulate(g, chip, Options{})
		// Time must be at least the pure compute lower bound at peak.
		lower := r.FLOPs / chip.PeakMXUFLOPS
		if r.StepTime < lower {
			return false
		}
		// And at least the HBM streaming lower bound.
		if r.StepTime < r.HBMBytes/chip.HBMBandwidth {
			return false
		}
		return r.StepTime > 0 && r.Power >= chip.IdlePower
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// cloneGraph copies g through Push, so the copy shares no op storage.
func cloneGraph(g *arch.Graph) *arch.Graph {
	c := &arch.Graph{Name: g.Name, Batch: g.Batch, DTypeBytes: g.DTypeBytes, Params: g.Params}
	for i := range g.Ops {
		*c.Push() = g.Ops[i]
	}
	return c
}

func TestSimMonotoneInWorkProperty(t *testing.T) {
	// Adding an op can never make the graph faster.
	chip := TPUv4()
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		g := randomDenseGraph(rng)
		base := Simulate(g, chip, Options{}).StepTime
		bigger := cloneGraph(g)
		arch.DenseOp(bigger.Push(), "extra", g.Batch, 256, 256, g.DTypeBytes)
		return Simulate(bigger, chip, Options{}).StepTime >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSimMonotoneInBatchProperty(t *testing.T) {
	// A larger batch of the same layers can never be faster in absolute
	// step time.
	chip := TPUv4i()
	f := func(seed uint64, b8 uint8) bool {
		small := 1 << (b8%4 + 2)
		big := small * 2
		inner := 1 << (tensor.NewRNG(seed).Intn(4) + 6)
		mk := func(batch int) *arch.Graph {
			g := &arch.Graph{Name: "b", Batch: batch, DTypeBytes: 2}
			arch.DenseOp(g.Push(), "fc1", batch, inner, inner, 2)
			arch.DenseOp(g.Push(), "fc2", batch, inner, inner, 2)
			return g
		}
		return Simulate(mk(big), chip, Options{}).StepTime >= Simulate(mk(small), chip, Options{}).StepTime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFasterChipNeverSlowerProperty(t *testing.T) {
	// TPUv4 dominates TPUv4i in every resource, so no graph may run
	// slower on it.
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		g := randomDenseGraph(rng)
		v4 := Simulate(g, TPUv4(), Options{}).StepTime
		v4i := Simulate(g, TPUv4i(), Options{}).StepTime
		return v4 <= v4i*1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		g := randomDenseGraph(rng)
		for _, mode := range []Mode{Inference, Training} {
			r := Simulate(g, TPUv4(), Options{Mode: mode})
			if r.Energy <= 0 || r.Energy < r.StepTime*TPUv4().IdlePower*0.999 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureAlwaysSlowerThanSimulateProperty(t *testing.T) {
	// The silicon gap is ≥ the chip's base gap minus the 1% noise band,
	// so measurements never come in faster than ~1.2× the simulation.
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		g := randomDenseGraph(rng)
		sim := Simulate(g, TPUv4(), Options{}).StepTime
		meas := Measure(g, TPUv4(), Options{}, seed).StepTime
		return meas > sim*1.1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
