package hwsim

import (
	"math"
	"testing"

	"h2onas/internal/arch"
)

func servingBuilder() GraphBuilder {
	return func(batch int) *arch.Graph {
		g := &arch.Graph{Name: "serve", Batch: batch, DTypeBytes: 2}
		g.Push(arch.DenseOp("fc1", batch, 2048, 2048, 2))
		g.Push(arch.DenseOp("fc2", batch, 2048, 2048, 2))
		return g
	}
}

func TestServeUnderLoadLatencyGrowsWithLoad(t *testing.T) {
	chip := TPUv4i()
	build := servingBuilder()
	var prev float64
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		g := build(8)
		r := Simulate(g, chip, Options{Mode: Inference})
		capacity := 8 / r.StepTime
		p := ServeUnderLoad(build, chip, 8, capacity*frac)
		if p.P99Latency <= prev {
			t.Fatalf("P99 must grow with load: %v at ρ=%v", p.P99Latency, frac)
		}
		if p.P99Latency < p.MeanLatency {
			t.Fatal("P99 below mean")
		}
		prev = p.P99Latency
	}
}

func TestServeUnderLoadSaturation(t *testing.T) {
	chip := TPUv4i()
	build := servingBuilder()
	g := build(8)
	r := Simulate(g, chip, Options{Mode: Inference})
	capacity := 8 / r.StepTime
	p := ServeUnderLoad(build, chip, 8, capacity*1.1)
	if !math.IsInf(p.P99Latency, 1) {
		t.Fatal("overload must return infinite latency")
	}
	if p.Utilization <= 1 {
		t.Fatalf("utilization %v, want > 1", p.Utilization)
	}
}

func TestMaxQPSUnderP99Monotone(t *testing.T) {
	chip := TPUv4i()
	build := servingBuilder()
	tightQPS, _ := MaxQPSUnderP99(build, chip, 500e-6)
	looseQPS, looseBatch := MaxQPSUnderP99(build, chip, 20e-3)
	if looseQPS < tightQPS {
		t.Fatalf("looser latency target cannot reduce sustainable QPS: %v vs %v", looseQPS, tightQPS)
	}
	if looseQPS <= 0 || looseBatch < 1 {
		t.Fatalf("loose target must be servable: qps %v batch %d", looseQPS, looseBatch)
	}
	// The sustained rate under the target must actually meet the target.
	if looseQPS > 0 {
		p := ServeUnderLoad(build, chip, looseBatch, looseQPS)
		if p.P99Latency > 20e-3*1.001 {
			t.Fatalf("claimed sustainable rate violates the target: P99 %v", p.P99Latency)
		}
	}
}

func TestMaxQPSImpossibleTarget(t *testing.T) {
	chip := TPUv4i()
	qps, _ := MaxQPSUnderP99(servingBuilder(), chip, 1e-9)
	if qps != 0 {
		t.Fatalf("impossible target must return zero QPS, got %v", qps)
	}
}
