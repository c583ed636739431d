package core

import (
	"h2onas/internal/arch"
	"h2onas/internal/hwsim"
	"h2onas/internal/perfmodel"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

// DLRMObjectives produces the performance objectives of a DLRM search, in
// the order the experiments use them: primary = training step time
// (DLRM is training-cost dominated, Table 2), secondary = serving memory
// bytes (the analytic model-size head of Section 6.2.1). Step time comes
// from the simulator, invoked directly. It decodes and builds every
// candidate into one arch and graph it owns, so it serves one goroutine,
// as VisionObjectives does; the engine calls Perf from its coordinator
// policy stage only.
type DLRMObjectives struct {
	DS   *space.DLRMSpace
	Chip hwsim.Chip

	ar space.DLRMArch
	g  arch.Graph
}

// Perf implements PerfFunc. The slice it returns is the caller's to keep.
func (o *DLRMObjectives) Perf(a space.Assignment) []float64 {
	o.DS.DecodeInto(a, &o.ar)
	o.DS.GraphInto(o.ar, &o.g)
	r := hwsim.Simulate(&o.g, o.Chip, hwsim.Options{Mode: hwsim.Training, Chips: o.DS.Config.Chips})
	return []float64{r.StepTime, o.DS.ServingBytes(o.ar)}
}

// BaselinePerf evaluates the baseline architecture: the reference point
// search targets are set against.
func (o *DLRMObjectives) BaselinePerf() []float64 { return o.Perf(o.DS.BaselineAssignment()) }

// SimulatorSamples draws n random candidates from the space and labels
// them with simulated training/serving performance — the pre-training
// corpus of the two-phase performance model (Section 6.2.2).
func SimulatorSamples(ds *space.DLRMSpace, chip hwsim.Chip, n int, seed uint64) []perfmodel.Sample {
	return labeledSamples(ds, n, seed, func(g *arch.Graph, opts hwsim.Options, _ uint64) hwsim.Result {
		return hwsim.Simulate(g, chip, opts)
	})
}

// MeasuredSamples draws n random candidates and labels them with
// *measured* performance (the simulator warped by the systematic silicon
// gap) — the O(20) fine-tuning corpus.
func MeasuredSamples(ds *space.DLRMSpace, chip hwsim.Chip, n int, seed uint64) []perfmodel.Sample {
	return labeledSamples(ds, n, seed, func(g *arch.Graph, opts hwsim.Options, noise uint64) hwsim.Result {
		return hwsim.Measure(g, chip, opts, noise)
	})
}

// labeledSamples draws n random candidates (one RandomAssignment per
// candidate off a single stream seeded with seed) and labels each with
// run's training and serving step times; run also receives the
// per-candidate measurement-noise seed.
func labeledSamples(ds *space.DLRMSpace, n int, seed uint64, run func(g *arch.Graph, opts hwsim.Options, noise uint64) hwsim.Result) []perfmodel.Sample {
	rng := tensor.NewRNG(seed)
	out := make([]perfmodel.Sample, n)
	var ar space.DLRMArch // every candidate decodes and builds into these
	var g arch.Graph
	for i := range out {
		a := RandomAssignment(ds.Space, rng)
		ds.DecodeInto(a, &ar)
		ds.GraphInto(ar, &g)
		train := run(&g, hwsim.Options{Mode: hwsim.Training, Chips: ds.Config.Chips}, seed+uint64(i))
		serve := run(&g, hwsim.Options{Mode: hwsim.Inference}, seed+uint64(i)+1<<32)
		out[i] = perfmodel.Sample{
			Features:  ds.Space.Features(a),
			TrainTime: train.StepTime,
			ServeTime: serve.StepTime,
		}
	}
	return out
}

// RandomAssignment draws every decision of the space uniformly, in
// decision order.
func RandomAssignment(sp *space.Space, rng *tensor.RNG) space.Assignment {
	a := make(space.Assignment, len(sp.Decisions))
	for i, d := range sp.Decisions {
		a[i] = rng.Intn(d.Arity())
	}
	return a
}
