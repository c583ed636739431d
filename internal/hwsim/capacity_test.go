package hwsim

import (
	"testing"

	"h2onas/internal/arch"
)

func TestFootprintTrainingVsInference(t *testing.T) {
	g := denseGraph(128, 2048, 2048)
	inf := Footprint(g, Options{Mode: Inference})
	trn := Footprint(g, Options{Mode: Training})
	if inf.OptimizerBytes != 0 {
		t.Fatal("inference carries no optimizer state")
	}
	if trn.OptimizerBytes != 3*trn.ParamBytes {
		t.Fatalf("training optimizer bytes %v, want 3× params %v", trn.OptimizerBytes, trn.ParamBytes)
	}
	if trn.Total <= inf.Total {
		t.Fatal("training footprint must exceed inference")
	}
	if inf.ParamBytes != g.TotalParamBytes() {
		t.Fatal("param bytes must match the graph")
	}
}

func TestFitsMemoryBounds(t *testing.T) {
	small := denseGraph(8, 64, 64)
	if ok, _ := FitsMemory(small, TPUv4(), Options{Mode: Training}); !ok {
		t.Fatal("a tiny model must fit HBM")
	}
	huge := &arch.Graph{Name: "huge", Batch: 1, DTypeBytes: 4}
	// ~64 GB of parameters: exceeds TPUv4's 32 GB HBM.
	arch.DenseOp(huge.Push(), "fc", 1, 131072, 131072, 4)
	if ok, f := FitsMemory(huge, TPUv4(), Options{Mode: Inference}); ok {
		t.Fatalf("a %v-byte model must not fit 32 GB HBM", f.Total)
	}
}

func TestScalingCurveStrongScaling(t *testing.T) {
	build := func(batch int) *arch.Graph {
		g := &arch.Graph{Name: "scale", Batch: batch, DTypeBytes: 2}
		arch.DenseOp(g.Push(), "fc1", batch, 4096, 4096, 2)
		arch.DenseOp(g.Push(), "fc2", batch, 4096, 4096, 2)
		grads := g.TotalParamBytes()
		arch.AllReduceOp(g.Push(), "grads", grads)
		return g
	}
	points := ScalingCurve(build, TPUv4(), 8192, []int{1, 8, 64, 512})
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Throughput <= points[i-1].Throughput {
			t.Errorf("throughput must grow with chips in this regime: %+v", points)
		}
		if points[i].Efficiency > points[i-1].Efficiency+1e-9 {
			t.Errorf("strong-scaling efficiency must not increase: %+v", points)
		}
	}
	if points[0].Efficiency != 1 {
		t.Errorf("first point efficiency = %v, want 1", points[0].Efficiency)
	}
	last := points[len(points)-1]
	if last.Efficiency >= 1 {
		t.Errorf("512-chip efficiency %v must show scaling losses", last.Efficiency)
	}
	if last.PerChipBatch != 8192/512 {
		t.Errorf("per-chip batch %d", last.PerChipBatch)
	}
}
