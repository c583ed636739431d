package models

import (
	"math"
	"testing"

	"h2onas/internal/hwsim"
	"h2onas/internal/quality"
	"h2onas/internal/space"
)

func TestCoAtNetFamilyMonotone(t *testing.T) {
	var prevParams, prevFLOPs float64
	for i := 0; i < CoAtNetFamilySize(); i++ {
		g := CoAtNet(i).Graph()
		if g.Params <= prevParams || g.TotalFLOPs() <= prevFLOPs {
			t.Fatalf("CoAtNet-%d must be larger than CoAtNet-%d", i, i-1)
		}
		prevParams, prevFLOPs = g.Params, g.TotalFLOPs()
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCoAtNetParamsNearPaper(t *testing.T) {
	// Paper: CoAtNet family spans 25–688 M params (Table 2); the H variant
	// adds ~9 M (697 M, Table 3).
	p0 := CoAtNet(0).Graph().Params / 1e6
	p5 := CoAtNet(5).Graph().Params / 1e6
	if p0 < 15 || p0 > 40 {
		t.Errorf("CoAtNet-0 params %vM, want ≈25M", p0)
	}
	if p5 < 600 || p5 > 780 {
		t.Errorf("CoAtNet-5 params %vM, want ≈688M", p5)
	}
	ph := CoAtNetH(5).Graph().Params / 1e6
	ratio := ph / p5
	if ratio < 1.005 || ratio > 1.03 {
		t.Errorf("CoAtNet-H5/CoAtNet-5 params ratio %v, want ≈1.013", ratio)
	}
}

func TestCoAtNetH5SpeedupBand(t *testing.T) {
	// Figure 7: 1.84× training speedup; FLOPs ratio 0.47; HBM traffic
	// 0.65; CMEM bandwidth 5.3; energy 0.54 (Figure 9).
	chip := hwsim.TPUv4()
	opts := hwsim.Options{Mode: hwsim.Training, Chips: 128}
	r5 := hwsim.Simulate(CoAtNet(5).Graph(), chip, opts)
	rh := hwsim.Simulate(CoAtNetH(5).Graph(), chip, opts)
	speedup := r5.StepTime / rh.StepTime
	if speedup < 1.5 || speedup > 2.3 {
		t.Errorf("C-H5 speedup %v, want ≈1.84", speedup)
	}
	flopsRatio := CoAtNetH(5).Graph().TotalFLOPs() / CoAtNet(5).Graph().TotalFLOPs()
	if flopsRatio < 0.40 || flopsRatio > 0.60 {
		t.Errorf("FLOPs ratio %v, want ≈0.47", flopsRatio)
	}
	if hbm := rh.HBMBytes / r5.HBMBytes; hbm >= 1 {
		t.Errorf("H5 must reduce HBM traffic, got ratio %v", hbm)
	}
	if cmem := rh.CMEMBandwidthUsed() / r5.CMEMBandwidthUsed(); cmem < 2 {
		t.Errorf("H5 CMEM bandwidth ratio %v, want ≫1 (paper 5.3)", cmem)
	}
	if energy := rh.Energy / r5.Energy; energy < 0.4 || energy > 0.75 {
		t.Errorf("energy ratio %v, want ≈0.54", energy)
	}
}

func TestCoAtNetH5AccuracyNeutral(t *testing.T) {
	base := CoAtNet(5)
	h := CoAtNetH(5)
	accBase := quality.Accuracy(base.Traits(base), quality.JFT300M)
	accH := quality.Accuracy(h.Traits(base), quality.JFT300M)
	if math.Abs(accBase-accH) > 0.4 {
		t.Errorf("CoAtNet-H5 accuracy %v vs CoAtNet-5 %v, must be neutral", accH, accBase)
	}
}

func TestCoAtNetPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CoAtNet(9)
}

func TestEfficientNetFamilyMonotone(t *testing.T) {
	var prev float64
	for i := 0; i <= 7; i++ {
		g := EfficientNetX(i).Graph()
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if g.TotalFLOPs() <= prev {
			t.Fatalf("B%d FLOPs must exceed B%d", i, i-1)
		}
		prev = g.TotalFLOPs()
	}
}

func TestEfficientNetHIdenticalBelowB5(t *testing.T) {
	for i := 0; i <= 4; i++ {
		x, h := EfficientNetX(i), EfficientNetH(i)
		if x.Graph().TotalFLOPs() != h.Graph().TotalFLOPs() {
			t.Errorf("B%d must be unchanged in the H family", i)
		}
	}
}

func TestEfficientNetHSpeedupBands(t *testing.T) {
	// Table 4: ≈5 % family-wide training speedup, ≈14 % on B5–B7.
	chip := hwsim.TPUv4()
	var geo, geo57, n, n57 float64
	for i := 0; i <= 7; i++ {
		rx := hwsim.Simulate(EfficientNetX(i).Graph(), chip, hwsim.Options{Mode: hwsim.Training, Chips: 128})
		rh := hwsim.Simulate(EfficientNetH(i).Graph(), chip, hwsim.Options{Mode: hwsim.Training, Chips: 128})
		sp := rx.StepTime / rh.StepTime
		if sp < 0.999 {
			t.Errorf("B%d H variant slower than baseline (%v)", i, sp)
		}
		geo += math.Log(sp)
		n++
		if i >= 5 {
			geo57 += math.Log(sp)
			n57++
		}
	}
	family := math.Exp(geo / n)
	big := math.Exp(geo57 / n57)
	if family < 1.02 || family > 1.12 {
		t.Errorf("family geomean speedup %v, want ≈1.05", family)
	}
	if big < 1.08 || big > 1.25 {
		t.Errorf("B5–B7 geomean speedup %v, want ≈1.14", big)
	}
}

func TestEfficientNetServingSpeedups(t *testing.T) {
	// Table 4: ≈6 % serving speedup on TPUv4i and GPU V100.
	for _, chip := range []hwsim.Chip{hwsim.TPUv4i(), hwsim.GPUV100()} {
		var geo, n float64
		for i := 0; i <= 7; i++ {
			rx := hwsim.Simulate(EfficientNetX(i).ServingGraph(16), chip, hwsim.Options{})
			rh := hwsim.Simulate(EfficientNetH(i).ServingGraph(16), chip, hwsim.Options{})
			geo += math.Log(rx.StepTime / rh.StepTime)
			n++
		}
		sp := math.Exp(geo / n)
		if sp < 1.01 || sp > 1.12 {
			t.Errorf("%s serving geomean speedup %v, want ≈1.06", chip.Name, sp)
		}
	}
}

func TestDLRMBaselineImbalanced(t *testing.T) {
	// Section 7.1.2: "the MLP compute time is much longer than the
	// embedding computing time" in the baseline.
	ds := space.NewDLRMSpace(ProductionShapeDLRMConfig())
	r := hwsim.Simulate(ds.Graph(BaselineDLRM(ds)), hwsim.TPUv4(),
		hwsim.Options{Mode: hwsim.Training, Chips: ds.Config.Chips})
	if r.DenseTime <= r.EmbedTime {
		t.Fatalf("baseline must be MLP-dominated: dense %v vs embed %v", r.DenseTime, r.EmbedTime)
	}
}

func TestDLRMHRebalancesAndSpeedsUp(t *testing.T) {
	// Figure 8: ~10 % faster with embedding and DNN times balanced.
	ds := space.NewDLRMSpace(ProductionShapeDLRMConfig())
	opts := hwsim.Options{Mode: hwsim.Training, Chips: ds.Config.Chips}
	rb := hwsim.Simulate(ds.Graph(BaselineDLRM(ds)), hwsim.TPUv4(), opts)
	rh := hwsim.Simulate(ds.Graph(DLRMH(ds)), hwsim.TPUv4(), opts)
	speedup := rb.StepTime / rh.StepTime
	if speedup < 1.05 || speedup > 1.30 {
		t.Errorf("DLRM-H speedup %v, want ≈1.10", speedup)
	}
	balance := rh.EmbedTime / rh.DenseTime
	if balance < 0.75 || balance > 1.25 {
		t.Errorf("DLRM-H embed/dense balance %v, want ≈1", balance)
	}
	// "Reduce the total embedding layer size": serving memory shrinks.
	if ds.ServingBytes(DLRMH(ds)) >= ds.ServingBytes(BaselineDLRM(ds)) {
		t.Error("DLRM-H must not grow serving memory")
	}
}

func TestDLRMHQualityGain(t *testing.T) {
	// Wider head-table embeddings at modestly reduced vocab should yield
	// a small positive quality delta (paper: +0.02 %).
	ds := space.NewDLRMSpace(ProductionShapeDLRMConfig())
	base, opt := BaselineDLRM(ds), DLRMH(ds)
	// The H variant widens the informative tables.
	if opt.EmbWidths[0] <= base.EmbWidths[0] {
		t.Error("DLRM-H must widen head-table embeddings")
	}
	// And widens MLP layers while cutting their rank.
	if opt.TopWidths[0] <= base.TopWidths[0] || opt.TopRanks[0] >= base.TopRanks[0] {
		t.Error("DLRM-H must widen top MLP layers and cut rank")
	}
}

func TestProductionFleetShape(t *testing.T) {
	fleet := ProductionFleet()
	if len(fleet) != 8 {
		t.Fatalf("fleet size %d, want 8 (5 CV + 3 DLRM)", len(fleet))
	}
	var cv, dlrm int
	for _, m := range fleet {
		switch m.Domain {
		case "cv":
			cv++
			if m.CNN == nil {
				t.Errorf("%s: missing CNN config", m.Name)
			}
		case "dlrm":
			dlrm++
			if m.DLRM == nil {
				t.Errorf("%s: missing DLRM config", m.Name)
			}
		default:
			t.Errorf("%s: unknown domain %q", m.Name, m.Domain)
		}
		if m.LatencyTargetFactor <= 0 || m.QualityWeight <= 0 {
			t.Errorf("%s: invalid knobs %+v", m.Name, m)
		}
	}
	if cv != 5 || dlrm != 3 {
		t.Fatalf("fleet composition %d CV / %d DLRM, want 5/3", cv, dlrm)
	}
	// At least one of each domain trades performance for quality.
	perfTraders := 0
	for _, m := range fleet {
		if m.LatencyTargetFactor > 1 {
			perfTraders++
		}
	}
	if perfTraders < 2 {
		t.Fatal("fleet must include quality-first models (CV5, DLRM3)")
	}
}

// TestLookup is the model-name table cmd/inspect and cmd/serve's
// /simulate run too: exact variant names resolve, everything else is an
// error — never a constructor's panic.
func TestLookup(t *testing.T) {
	for _, name := range []string{
		"coatnet-0", "coatnet-5", "coatnet-h3", "efficientnet-b0", "EfficientNet-B5",
		"efficientnet-hb7", "dlrm", "dlrm-h", "DLRM-H",
	} {
		build, err := Lookup(name)
		if err != nil {
			t.Errorf("Lookup(%q) = %v, want ok", name, err)
			continue
		}
		// Batch 0 is the zoo's reference shape; a positive batch is honoured.
		if g := build(0); g.Batch <= 0 || len(g.Ops) == 0 {
			t.Errorf("Lookup(%q)(0): degenerate graph (batch %d, %d ops)", name, g.Batch, len(g.Ops))
		}
		if g := build(3); g.Batch != 3 {
			t.Errorf("Lookup(%q)(3): graph batch %d", name, g.Batch)
		}
	}
	for _, name := range []string{
		"coatnet-9", "coatnet--1", "coatnet-6", "coatnet-", "coatnet-2x", "coatnet-h9",
		"efficientnet-b5xyz", "efficientnet-b05", "efficientnet-b9", "efficientnet-b-1",
		"efficientnet-b", "efficientnet-hb8", "dlrm-x", "dlrmx", "resnet", "",
	} {
		if _, err := Lookup(name); err == nil {
			t.Errorf("Lookup(%q) succeeded, want error", name)
		}
	}
	if got := Names(); len(got) != len(families)+1 {
		t.Errorf("Names() = %q, want one line per family plus the DLRMs", got)
	}
}
