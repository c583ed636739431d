package core

import (
	"testing"

	"h2onas/internal/hwsim"
	"h2onas/internal/metrics"
	"h2onas/internal/quality"
	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

// visionCase returns the objectives of one analytic vision space, cnn or
// hybrid, and random candidates of it.
func visionCase(label string, n int) (*VisionObjectives, []space.Assignment) {
	o := &VisionObjectives{CNN: space.NewCNNSpace(space.DefaultCNNConfig()), Chip: hwsim.TPUv4(), Dataset: quality.ImageNet1K}
	sp := o.CNN.Space
	if label == "hybrid" {
		o = &VisionObjectives{ViT: space.NewHybridViTSpace(space.DefaultViTConfig()), Chip: hwsim.TPUv4(), Dataset: quality.ImageNet21K}
		sp = o.ViT.Space
	}
	rng := tensor.NewRNG(5)
	as := make([]space.Assignment, n)
	for i := range as {
		as[i] = RandomAssignment(sp, rng)
	}
	return o, as
}

// visionPerf is a PerfFunc over the objectives; perfSink keeps what it
// returns on the heap, as AnalyticSearcher's candidate record does.
func visionPerf(o *VisionObjectives, a space.Assignment) {
	perfSink = []float64{o.Evaluate(a).Train.StepTime}
}

// visionPair is the Quality(a), Perf(a) pair AnalyticSearcher makes per
// candidate.
func visionPair(o *VisionObjectives, a space.Assignment) {
	_ = o.Evaluate(a).Accuracy
	visionPerf(o, a)
}

// TestVisionObjectivesPriceOnce: a Quality(a), Perf(a) pair costs one
// simulation (so one decode and one build) and allocates what one
// evaluation does, and the memo keys on the assignment's value, not on
// the slice the strategy reuses.
func TestVisionObjectivesPriceOnce(t *testing.T) {
	reg := metrics.New()
	hwsim.SetMetrics(reg)
	defer hwsim.SetMetrics(nil)
	calls := reg.Counter("hwsim_simulate_calls_total")
	for _, label := range []string{"cnn", "hybrid"} {
		o, as := visionCase(label, 8)
		buf := make(space.Assignment, len(as[0]))
		before := calls.Value()
		for k, a := range as {
			copy(buf, a) // one slice, rewritten per candidate
			visionPair(o, buf)
			if n := calls.Value() - before; n != int64(k+1) {
				t.Fatalf("%s: %d simulations after %d candidates' pairs", label, n, k+1)
			}
		}
		if raceDetector {
			continue
		}
		k := 0
		pair := testing.AllocsPerRun(32, func() { visionPair(o, as[k%len(as)]); k++ })
		one := testing.AllocsPerRun(32, func() { visionPerf(o, as[k%len(as)]); k++ })
		if pair != one {
			t.Errorf("%s: a Quality, Perf pair makes %.1f allocations, one evaluation %.1f", label, pair, one)
		}
	}
}

// BenchmarkVisionObjectives times pricing one candidate the way the
// analytic search does, a Quality(a), Perf(a) pair, over 64 random
// candidates of each vision space.
func BenchmarkVisionObjectives(b *testing.B) {
	for _, label := range []string{"cnn", "hybrid"} {
		b.Run(label, func(b *testing.B) {
			o, as := visionCase(label, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				visionPair(o, as[i%len(as)])
			}
		})
	}
}
