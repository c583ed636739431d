package space

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"h2onas/internal/hwsim"
	"h2onas/internal/tensor"
)

func TestDecisionBasics(t *testing.T) {
	d := NewDecision("x", 1, 2, 3)
	if d.Arity() != 3 {
		t.Fatalf("Arity = %d", d.Arity())
	}
	if d.Labels[1] != "2" {
		t.Fatalf("derived label = %q", d.Labels[1])
	}
}

func TestNewLabeledDecisionValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for label/value mismatch")
		}
	}()
	NewLabeledDecision("x", []string{"a"}, []float64{1, 2})
}

func TestSpaceLookupAndSetNearest(t *testing.T) {
	s := NewSpace("t", NewDecision("a", 10, 20), NewDecision("b", 1, 2, 3))
	if s.Lookup("b") != 1 {
		t.Fatal("Lookup failed")
	}
	if s.Lookup("zzz") != -1 {
		t.Fatal("unknown name must return -1")
	}
	a := Assignment{0, 0}
	s.setNearest(a, s.Lookup("a"), 17)
	s.setNearest(a, s.Lookup("b"), 2.4)
	if a[0] != 1 || a[1] != 1 {
		t.Fatalf("setNearest picked %v, want [1 1]", a)
	}
}

func TestSpaceDuplicateDecisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate decision")
		}
	}()
	NewSpace("t", NewDecision("a", 1), NewDecision("a", 2))
}

func TestSpaceValidate(t *testing.T) {
	s := NewSpace("t", NewDecision("a", 1, 2))
	if err := s.Validate(Assignment{0}); err != nil {
		t.Fatalf("valid assignment rejected: %v", err)
	}
	if s.Validate(Assignment{2}) == nil {
		t.Fatal("out-of-range choice accepted")
	}
	if s.Validate(Assignment{0, 0}) == nil {
		t.Fatal("wrong-length assignment accepted")
	}
}

func TestLog10Size(t *testing.T) {
	s := NewSpace("t", NewDecision("a", 1, 2), NewDecision("b", 1, 2, 3, 4, 5))
	want := math.Log10(2) + math.Log10(5)
	if math.Abs(s.Log10Size()-want) > 1e-12 {
		t.Fatalf("Log10Size = %v, want %v", s.Log10Size(), want)
	}
}

func TestFeaturesNormalized(t *testing.T) {
	s := NewSpace("t", NewDecision("a", 8, 16, 24), NewDecision("const", 5))
	f := s.Features(Assignment{2, 0})
	if f[0] != 1 {
		t.Fatalf("max option must encode as 1, got %v", f[0])
	}
	if f[1] != 0 {
		t.Fatalf("constant decision must encode as 0, got %v", f[1])
	}
	f = s.Features(Assignment{0, 0})
	if f[0] != 0 {
		t.Fatalf("min option must encode as 0, got %v", f[0])
	}
}

// --- DLRM space ---

func TestDLRMSpaceSizeMatchesPaper(t *testing.T) {
	// Table 5: production DLRM space is O(10^282).
	d := NewDLRMSpace(ProductionDLRMConfig())
	size := d.Space.Log10Size()
	if size < 270 || size < 200 {
		t.Fatalf("production DLRM space log10 size = %v, want O(282)", size)
	}
	if size < 260 || size > 310 {
		t.Errorf("production DLRM space log10 size = %v, want ≈282", size)
	}
}

func TestDLRMBaselineDecodesToBaseline(t *testing.T) {
	d := NewDLRMSpace(DefaultDLRMConfig())
	ar := d.Decode(d.BaselineAssignment())
	cfg := d.Config
	for i, w := range ar.EmbWidths {
		if w != cfg.BaseEmbWidth {
			t.Fatalf("table %d width = %d, want baseline %d", i, w, cfg.BaseEmbWidth)
		}
		if ar.EmbVocabs[i] != cfg.BaseVocab {
			t.Fatalf("table %d vocab = %d, want baseline %d", i, ar.EmbVocabs[i], cfg.BaseVocab)
		}
	}
	if len(ar.BottomWidths) != len(cfg.BottomWidths) {
		t.Fatalf("bottom depth = %d, want %d", len(ar.BottomWidths), len(cfg.BottomWidths))
	}
	for i, w := range ar.BottomWidths {
		if w != cfg.BottomWidths[i] {
			t.Fatalf("bottom[%d] = %d, want %d", i, w, cfg.BottomWidths[i])
		}
		if ar.BottomRanks[i] < w { // full rank at baseline
			t.Fatalf("bottom[%d] rank %d should be full (%d)", i, ar.BottomRanks[i], w)
		}
	}
	if len(ar.TopWidths) != len(cfg.TopWidths) {
		t.Fatalf("top depth = %d, want %d", len(ar.TopWidths), len(cfg.TopWidths))
	}
}

func TestDLRMDecodeAnyAssignmentProperty(t *testing.T) {
	d := NewDLRMSpace(DefaultDLRMConfig())
	rng := tensor.NewRNG(1)
	f := func(seed uint64) bool {
		_ = seed
		a := make(Assignment, len(d.Space.Decisions))
		for i, dec := range d.Space.Decisions {
			a[i] = rng.Intn(dec.Arity())
		}
		ar := d.Decode(a)
		// Decoded architectures must always be well-formed.
		if len(ar.BottomWidths) < 1 || len(ar.TopWidths) < 1 {
			return false
		}
		for i, w := range ar.BottomWidths {
			if w < 8 || ar.BottomRanks[i] < 8 || ar.BottomRanks[i] > w {
				return false
			}
		}
		g := d.Graph(ar)
		// Simulate panics on a malformed graph.
		return hwsim.Simulate(g, hwsim.TPUv4(), priceOpts).StepTime > 0 && g.TotalFLOPs() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDLRMGraphRemovedTableShrinksExchange(t *testing.T) {
	d := NewDLRMSpace(DefaultDLRMConfig())
	base := d.Decode(d.BaselineAssignment())
	removed := base
	removed.EmbWidths = append([]int(nil), base.EmbWidths...)
	removed.EmbWidths[0] = 0
	gBase := d.Graph(base)
	gRem := d.Graph(removed)
	if gRem.NetworkBytes() >= gBase.NetworkBytes() {
		t.Fatal("removing a table must shrink the embedding exchange")
	}
	if gRem.Params >= gBase.Params {
		t.Fatal("removing a table must shrink parameters")
	}
}

func TestDLRMLowRankShrinksFLOPs(t *testing.T) {
	d := NewDLRMSpace(DefaultDLRMConfig())
	base := d.Decode(d.BaselineAssignment())
	low := base
	low.TopRanks = append([]int(nil), base.TopRanks...)
	for i := range low.TopRanks {
		low.TopRanks[i] = 8
	}
	if d.Graph(low).TotalFLOPs() >= d.Graph(base).TotalFLOPs() {
		t.Fatal("rank-8 factorization must reduce total FLOPs")
	}
}

// --- CNN space ---

func TestCNNSpaceSizeMatchesPaper(t *testing.T) {
	// Table 5: (302400)^7 × 8 ≈ O(10^39).
	c := NewCNNSpace(DefaultCNNConfig())
	size := c.Space.Log10Size()
	want := 7*math.Log10(302400) + math.Log10(8)
	if math.Abs(size-want) > 0.5 {
		t.Fatalf("CNN space log10 size = %v, want ≈%v", size, want)
	}
}

func TestCNNBaselineDecodes(t *testing.T) {
	c := NewCNNSpace(DefaultCNNConfig())
	ar := c.Decode(c.BaselineAssignment())
	if ar.Resolution != 224 {
		t.Fatalf("baseline resolution = %d", ar.Resolution)
	}
	for i, blk := range ar.Blocks {
		st := c.Config.Stages[i]
		if blk.Out != st.Width || blk.Kernel != st.Kernel || blk.Stride != st.Stride {
			t.Fatalf("stage %d decode mismatch: %+v vs %+v", i, blk, st)
		}
		if ar.Depths[i] != st.Depth {
			t.Fatalf("stage %d depth = %d, want %d", i, ar.Depths[i], st.Depth)
		}
	}
}

func TestCNNGraphValidAcrossRandomAssignments(t *testing.T) {
	c := NewCNNSpace(DefaultCNNConfig())
	rng := tensor.NewRNG(2)
	for trial := 0; trial < 25; trial++ {
		a := make(Assignment, len(c.Space.Decisions))
		for i, dec := range c.Space.Decisions {
			a[i] = rng.Intn(dec.Arity())
		}
		g := c.Graph(c.Decode(a))
		hwsim.Simulate(g, hwsim.TPUv4(), priceOpts) // panics on a malformed graph
		if g.TotalFLOPs() <= 0 || g.Params <= 0 {
			t.Fatalf("trial %d: degenerate graph", trial)
		}
	}
}

func TestCNNResolutionScalesFLOPs(t *testing.T) {
	c := NewCNNSpace(DefaultCNNConfig())
	base := c.BaselineAssignment()
	hi := append(Assignment(nil), base...)
	hi[c.Space.Lookup("resolution")] = len(cnnResolutions) - 1
	fBase := c.Graph(c.Decode(base)).TotalFLOPs()
	fHi := c.Graph(c.Decode(hi)).TotalFLOPs()
	if fHi <= fBase*2 {
		t.Fatalf("600px (%v FLOPs) should be far costlier than 224px (%v)", fHi, fBase)
	}
}

// --- ViT spaces ---

func TestTransformerSpaceSizeMatchesPaper(t *testing.T) {
	// Table 5: (17920)^2 ≈ O(10^8) for 2 blocks.
	v := NewTransformerSpace(DefaultViTConfig())
	size := v.Space.Log10Size()
	want := 2 * math.Log10(17920)
	if math.Abs(size-want) > 0.3 {
		t.Fatalf("TFM space log10 size = %v, want ≈%v", size, want)
	}
}

func TestHybridViTSpaceSizeMatchesPaper(t *testing.T) {
	// Table 5: 17920² × 21 × 302400² × 7 ≈ O(10^21).
	v := NewHybridViTSpace(DefaultViTConfig())
	size := v.Space.Log10Size()
	want := 2*math.Log10(17920) + math.Log10(21) + 2*math.Log10(302400) + math.Log10(7)
	if math.Abs(size-want) > 0.5 {
		t.Fatalf("hybrid space log10 size = %v, want ≈%v", size, want)
	}
}

func TestViTBaselineDecodes(t *testing.T) {
	v := NewHybridViTSpace(DefaultViTConfig())
	ar := v.Decode(v.BaselineAssignment())
	if ar.PatchSize != 16 || ar.Resolution != 224 {
		t.Fatalf("baseline stem decode: patch %d res %d", ar.PatchSize, ar.Resolution)
	}
	for i, blk := range ar.TFMBlocks {
		if blk.Hidden != v.Config.Blocks[i].Hidden {
			t.Fatalf("tfm %d hidden = %d, want %d", i, blk.Hidden, v.Config.Blocks[i].Hidden)
		}
		if blk.Act != "gelu" {
			t.Fatalf("baseline activation = %s", blk.Act)
		}
	}
}

func TestViTGraphValidAcrossRandomAssignments(t *testing.T) {
	v := NewHybridViTSpace(DefaultViTConfig())
	rng := tensor.NewRNG(3)
	for trial := 0; trial < 25; trial++ {
		a := make(Assignment, len(v.Space.Decisions))
		for i, dec := range v.Space.Decisions {
			a[i] = rng.Intn(dec.Arity())
		}
		g := v.Graph(v.Decode(a))
		hwsim.Simulate(g, hwsim.TPUv4(), priceOpts) // panics on a malformed graph
	}
}

func TestViTSquaredReLUCheaperThanGeLU(t *testing.T) {
	v := NewTransformerSpace(DefaultViTConfig())
	base := v.BaselineAssignment()
	srelu := append(Assignment(nil), base...)
	for i := range v.Config.Blocks {
		idx := v.Space.Lookup(fmt.Sprintf("tfm%d_act", i))
		srelu[idx] = 3 // squared_relu
	}
	fGelu := v.Graph(v.Decode(base)).TotalFLOPs()
	fSrelu := v.Graph(v.Decode(srelu)).TotalFLOPs()
	if fSrelu >= fGelu {
		t.Fatalf("squared ReLU (%v) must cost less than GeLU (%v)", fSrelu, fGelu)
	}
}
