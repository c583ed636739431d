package hwsim

import (
	"math"
	"testing"

	"h2onas/internal/arch"
)

func servingBuilder() GraphBuilder {
	return func(batch int) *arch.Graph {
		g := &arch.Graph{Name: "serve", Batch: batch, DTypeBytes: 2}
		arch.DenseOp(g.Push(), "fc1", batch, 2048, 2048, 2)
		arch.DenseOp(g.Push(), "fc2", batch, 2048, 2048, 2)
		return g
	}
}

func TestP99AtLoadGrowsWithLoad(t *testing.T) {
	service := Simulate(servingBuilder()(8), TPUv4i(), Options{Mode: Inference}).StepTime
	capacity := 8 / service
	var prev float64
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		p99 := P99AtLoad(service, 8, capacity*frac)
		if p99 <= prev {
			t.Fatalf("P99 must grow with load: %v at ρ=%v", p99, frac)
		}
		prev = p99
	}
}

func TestP99AtLoadSaturation(t *testing.T) {
	service := Simulate(servingBuilder()(8), TPUv4i(), Options{Mode: Inference}).StepTime
	capacity := 8 / service
	if p99 := P99AtLoad(service, 8, capacity*1.1); !math.IsInf(p99, 1) {
		t.Fatalf("overload must return infinite latency, got %v", p99)
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
		if p99 := P99AtLoad(serviceTime(build, chip, looseBatch), looseBatch, looseQPS); p99 > 20e-3*1.001 {
			t.Fatalf("claimed sustainable rate violates the target: P99 %v", p99)
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

// TestMaxQPSBuildsEachBatchOnce: the service time does not depend on the
// query rate, so MaxQPSUnderP99 builds and simulates each batch it tries
// once and bisects over that time.
func TestMaxQPSBuildsEachBatchOnce(t *testing.T) {
	build := servingBuilder()
	builds := map[int]int{}
	counting := func(batch int) *arch.Graph {
		builds[batch]++
		return build(batch)
	}
	qps, _ := MaxQPSUnderP99(counting, TPUv4i(), 20e-3)
	if qps <= 0 || len(builds) < 2 {
		t.Fatalf("MaxQPSUnderP99 = %v after trying %d batches, want a rate over several", qps, len(builds))
	}
	for batch, n := range builds {
		if n > 1 {
			t.Errorf("batch %d built %d times, want once", batch, n)
		}
	}
}
