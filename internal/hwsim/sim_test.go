package hwsim

import (
	"math"
	"testing"

	"h2onas/internal/arch"
)

func denseGraph(batch, in, out int) *arch.Graph {
	g := &arch.Graph{Name: "dense", Batch: batch, DTypeBytes: 2}
	g.Push(arch.DenseOp("fc", batch, in, out, 2))
	return g
}

func TestSimulateBasicInvariants(t *testing.T) {
	g := denseGraph(128, 1024, 1024)
	r := Simulate(g, TPUv4(), Options{})
	if r.StepTime <= 0 {
		t.Fatal("StepTime must be positive")
	}
	if r.FLOPs != g.TotalFLOPs() {
		t.Fatalf("FLOPs = %v, want %v", r.FLOPs, g.TotalFLOPs())
	}
	if r.AchievedFLOPS() > TPUv4().PeakMXUFLOPS {
		t.Fatal("achieved FLOPS cannot exceed peak")
	}
	if r.Power <= TPUv4().IdlePower {
		t.Fatal("active chip must draw more than idle power")
	}
	if math.Abs(r.Energy-r.Power*r.StepTime) > 1e-12 {
		t.Fatal("Energy must equal Power×StepTime")
	}
}

func TestTrainingCostsMoreThanInference(t *testing.T) {
	g := denseGraph(128, 1024, 1024)
	inf := Simulate(g, TPUv4(), Options{Mode: Inference})
	trn := Simulate(g, TPUv4(), Options{Mode: Training})
	if trn.StepTime <= inf.StepTime*2 {
		t.Fatalf("training (%v) should cost ~3x inference (%v)", trn.StepTime, inf.StepTime)
	}
}

func TestBiggerBatchIsMoreEfficient(t *testing.T) {
	// Per-example time should shrink with batch (fixed overheads amortize,
	// MXU efficiency ramps up).
	small := Simulate(denseGraph(8, 1024, 1024), TPUv4(), Options{})
	large := Simulate(denseGraph(512, 1024, 1024), TPUv4(), Options{})
	perExSmall := small.StepTime / 8
	perExLarge := large.StepTime / 512
	if perExLarge >= perExSmall {
		t.Fatalf("per-example time must drop with batch: %v vs %v", perExLarge, perExSmall)
	}
}

func TestMemoryBoundOpLimitedByBandwidth(t *testing.T) {
	// An embedding gather has almost no FLOPs; its time must be ~bytes/bw.
	chip := TPUv4()
	g := &arch.Graph{Name: "emb", Batch: 1024, DTypeBytes: 4}
	op := arch.EmbeddingOp("e", 1024, 32, 256, 1_000_000, 4)
	g.Push(op)
	r := Simulate(g, chip, Options{})
	wantMin := (op.InputBytes + op.OutputBytes) / chip.HBMBandwidth
	if r.StepTime < wantMin {
		t.Fatalf("memory-bound op faster (%v) than bandwidth allows (%v)", r.StepTime, wantMin)
	}
	if r.StepTime > wantMin*3 {
		t.Fatalf("memory-bound op much slower (%v) than bandwidth-limited time (%v)", r.StepTime, wantMin)
	}
}

func TestSmallActivationsUseCMEM(t *testing.T) {
	chip := TPUv4()
	// Small dense layer: activations fit the CMEM staging budget.
	small := Simulate(denseGraph(32, 256, 256), chip, Options{})
	if small.CMEMBytes == 0 {
		t.Fatal("small activations should stage in CMEM")
	}
	// Huge activations exceed the budget and spill to HBM.
	big := &arch.Graph{Name: "big", Batch: 1024, DTypeBytes: 4}
	big.Push(arch.DenseOp("fc", 4096, 8192, 8192, 4))
	r := Simulate(big, chip, Options{})
	if r.HBMBytes == 0 {
		t.Fatal("oversized activations must spill to HBM")
	}
}

func TestFusionRemovesElementwiseTraffic(t *testing.T) {
	g := &arch.Graph{Name: "f", Batch: 256, DTypeBytes: 2}
	g.Push(arch.DenseOp("fc", 256, 2048, 2048, 2))
	g.Push(arch.ElementwiseOp("relu", 256*2048, 1, 2))
	fused := Simulate(g, TPUv4(), Options{})
	unfused := Simulate(g, TPUv4(), Options{DisableFusion: true})
	if fused.StepTime >= unfused.StepTime {
		t.Fatalf("fusion must not slow things down: %v vs %v", fused.StepTime, unfused.StepTime)
	}
	if fused.HBMBytes+fused.CMEMBytes >= unfused.HBMBytes+unfused.CMEMBytes {
		t.Fatal("fusion must remove the elementwise round-trip")
	}
}

func TestAllReducePartiallyOverlapped(t *testing.T) {
	g := denseGraph(128, 2048, 2048)
	g.Push(arch.AllReduceOp("grads", g.TotalParamBytes()))
	trn := Simulate(g, TPUv4(), Options{Mode: Training, Chips: 128})
	if trn.SyncTime <= 0 {
		t.Fatal("training with all-reduce must have sync time")
	}
	full := 2 * g.TotalParamBytes() / TPUv4().ICIBandwidth
	if trn.SyncTime >= full {
		t.Fatalf("sync time %v must be partially overlapped (< %v)", trn.SyncTime, full)
	}
	inf := Simulate(g, TPUv4(), Options{Mode: Inference})
	if inf.SyncTime != 0 {
		t.Fatal("inference must not pay gradient sync")
	}
}

func TestEmbeddingPhaseOverlapsDense(t *testing.T) {
	// Step time = MAX(embed, dense), the Figure 8 pipeline.
	g := &arch.Graph{Name: "dlrm", Batch: 4096, DTypeBytes: 4}
	g.Push(arch.EmbeddingOp("emb", 4096, 32, 128, 1_000_000, 4))
	g.Push(arch.AllToAllOp("a2a", 64<<20))
	g.Push(arch.DenseOp("mlp", 4096, 512, 512, 4))
	r := Simulate(g, TPUv4(), Options{Mode: Training})
	if r.EmbedTime == 0 || r.DenseTime == 0 {
		t.Fatal("both phases must be populated")
	}
	want := math.Max(r.EmbedTime, r.DenseTime) + r.SyncTime
	if math.Abs(r.StepTime-want) > 1e-15 {
		t.Fatalf("StepTime = %v, want max(emb,dense)+sync = %v", r.StepTime, want)
	}
	if r.StepTime >= r.EmbedTime+r.DenseTime {
		t.Fatal("phases must overlap, not serialize")
	}
}

func TestMBConvFusedCrossover(t *testing.T) {
	// The headline hardware behaviour of Figure 4c: at shallow channel
	// depth the fused block is faster; at deep channels the unfused
	// MBConv wins despite lower operational intensity.
	lat := func(fused bool, c int) float64 {
		spec := arch.MBConvSpec{Fused: fused, In: c, Out: c,
			Kernel: 3, Stride: 1, Expansion: 6, Act: "relu", H: 28, W: 28,
			Batch: 128, DType: 2}
		g := &arch.Graph{Name: spec.String(), Batch: 128, DTypeBytes: 2}
		g.PushMBConvStage(spec, arch.StageNames("b", 1), true)
		return Simulate(g, TPUv4i(), Options{}).StepTime
	}
	if lat(true, 32) >= lat(false, 32) {
		t.Errorf("F-MBC(32) %v must beat MBC(32) %v", lat(true, 32), lat(false, 32))
	}
	if lat(true, 128) <= lat(false, 128) {
		t.Errorf("MBC(128) %v must beat F-MBC(128) %v", lat(false, 128), lat(true, 128))
	}
}

func TestMBConvFusedAlwaysHigherThroughput(t *testing.T) {
	// Figure 4b: fused MBConvs always achieve higher FLOPS.
	point := func(fused bool, c int) RooflinePoint {
		spec := arch.MBConvSpec{Fused: fused, In: c, Out: c,
			Kernel: 3, Stride: 1, Expansion: 6, Act: "relu", H: 28, W: 28,
			Batch: 128, DType: 2}
		g := &arch.Graph{Name: spec.String(), Batch: 128, DTypeBytes: 2}
		g.PushMBConvStage(spec, arch.StageNames("b", 1), true)
		return Roofline(g, TPUv4i())
	}
	for _, c := range []int{32, 64, 128} {
		f, m := point(true, c), point(false, c)
		if f.AchievedFLOPS <= m.AchievedFLOPS {
			t.Errorf("F-MBC(%d) FLOPS %v must exceed MBC(%d) %v", c, f.AchievedFLOPS, c, m.AchievedFLOPS)
		}
		if f.OperationalIntensity <= m.OperationalIntensity {
			t.Errorf("F-MBC(%d) OI %v must exceed MBC(%d) %v", c, f.OperationalIntensity, c, m.OperationalIntensity)
		}
	}
}

func TestPowerModelBounds(t *testing.T) {
	chip := TPUv4()
	maxPower := chip.IdlePower + chip.MXUPower + chip.VPUPower + chip.HBMPower + chip.CMEMPower + chip.ICIPower
	for _, batch := range []int{1, 64, 4096} {
		r := Simulate(denseGraph(batch, 512, 512), chip, Options{Mode: Training})
		if r.Power < chip.IdlePower || r.Power > maxPower {
			t.Fatalf("power %v outside [%v, %v]", r.Power, chip.IdlePower, maxPower)
		}
	}
}

func TestChipByName(t *testing.T) {
	for _, name := range []string{"TPUv4", "TPUv4i", "GPUv100", "v100"} {
		if _, ok := ChipByName(name); !ok {
			t.Errorf("ChipByName(%q) not found", name)
		}
	}
	if _, ok := ChipByName("TPUv9"); ok {
		t.Error("unknown chip must not resolve")
	}
}

func TestRooflineRidgeAndPeak(t *testing.T) {
	chip := TPUv4()
	ridge := RidgePoint(chip)
	if got := PeakRoofline(chip, ridge/2); math.Abs(got-chip.HBMBandwidth*ridge/2) > 1 {
		t.Errorf("below ridge must be bandwidth-limited, got %v", got)
	}
	if got := PeakRoofline(chip, ridge*10); got != chip.PeakMXUFLOPS {
		t.Errorf("above ridge must be compute-limited, got %v", got)
	}
}

func TestMeasureAppliesSystematicGap(t *testing.T) {
	g := denseGraph(256, 1024, 1024)
	chip := TPUv4()
	sim := Simulate(g, chip, Options{Mode: Training})
	meas := Measure(g, chip, Options{Mode: Training}, 1)
	ratio := meas.StepTime / sim.StepTime
	if ratio < 1.1 || ratio > 1.8 {
		t.Fatalf("measured/simulated ratio %v outside plausible silicon gap", ratio)
	}
	// Deterministic per (graph, seed).
	again := Measure(g, chip, Options{Mode: Training}, 1)
	if again.StepTime != meas.StepTime {
		t.Fatal("Measure must be deterministic for the same seed")
	}
	other := Measure(g, chip, Options{Mode: Training}, 2)
	if other.StepTime == meas.StepTime {
		t.Fatal("different seeds must give different measurement noise")
	}
}

func TestTrainingThroughput(t *testing.T) {
	g := denseGraph(128, 1024, 1024)
	tp := TrainingThroughput(g, TPUv4(), 1)
	r := Simulate(g, TPUv4(), Options{Mode: Training, Chips: 1})
	if math.Abs(tp-128/r.StepTime) > 1e-9 {
		t.Fatalf("TrainingThroughput = %v, want %v", tp, 128/r.StepTime)
	}
}

func TestTraceRecordsPerOp(t *testing.T) {
	g := denseGraph(64, 128, 128)
	g.Push(arch.DenseOp("fc2", 64, 128, 128, 2))
	r := Simulate(g, TPUv4(), Options{Trace: true})
	if len(r.PerOp) != 2 {
		t.Fatalf("trace has %d ops, want 2", len(r.PerOp))
	}
	var sum float64
	for _, tr := range r.PerOp {
		sum += tr.Time
	}
	if math.Abs(sum-r.DenseTime) > 1e-12 {
		t.Fatalf("trace times (%v) must sum to dense time (%v)", sum, r.DenseTime)
	}
}

func TestSimulatePanicsOnInvalidGraph(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid graph")
		}
	}()
	Simulate(&arch.Graph{Name: "bad"}, TPUv4(), Options{})
}
