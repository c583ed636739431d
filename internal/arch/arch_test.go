package arch

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestConvOpAccounting(t *testing.T) {
	// 1 image, 8x8x3 input, 3x3 kernel, 16 filters, stride 1, f32.
	op := ConvOp(new(Op), "c", 1, 8, 8, 3, 16, 3, 1, 4)
	wantFLOPs := 2.0 * 8 * 8 * 3 * 3 * 3 * 16
	if op.FLOPs != wantFLOPs {
		t.Errorf("FLOPs = %v, want %v", op.FLOPs, wantFLOPs)
	}
	if op.Unit != MXU {
		t.Errorf("Conv2D must run on MXU")
	}
	wantParams := float64(3*3*3*16+16) * 4
	if op.ParamBytes != wantParams {
		t.Errorf("ParamBytes = %v, want %v", op.ParamBytes, wantParams)
	}
}

func TestConvStrideHalvesOutput(t *testing.T) {
	s1 := ConvOp(new(Op), "c", 1, 16, 16, 8, 8, 3, 1, 2)
	s2 := ConvOp(new(Op), "c", 1, 16, 16, 8, 8, 3, 2, 2)
	if math.Abs(s1.FLOPs/s2.FLOPs-4) > 1e-9 {
		t.Errorf("stride 2 should quarter conv FLOPs: %v vs %v", s1.FLOPs, s2.FLOPs)
	}
	if s2.OutputBytes*4 != s1.OutputBytes {
		t.Errorf("stride 2 should quarter output bytes")
	}
}

func TestDepthwiseOnVPU(t *testing.T) {
	op := DepthwiseOp(new(Op), "d", 1, 8, 8, 32, 3, 1, 2)
	if op.Unit != VPU {
		t.Error("depthwise conv must be tagged VPU")
	}
	wantFLOPs := 2.0 * 8 * 8 * 3 * 3 * 32
	if op.FLOPs != wantFLOPs {
		t.Errorf("FLOPs = %v, want %v", op.FLOPs, wantFLOPs)
	}
}

func TestDenseOpAccounting(t *testing.T) {
	op := DenseOp(new(Op), "fc", 4, 100, 50, 2)
	if op.FLOPs != 2*4*100*50 {
		t.Errorf("FLOPs = %v", op.FLOPs)
	}
	if op.ParamBytes != float64(100*50+50)*2 {
		t.Errorf("ParamBytes = %v", op.ParamBytes)
	}
}

func TestLowRankReducesFLOPs(t *testing.T) {
	full := DenseOp(new(Op), "fc", 8, 512, 512, 2)
	u, v := DenseOp(new(Op), "fc/u", 8, 512, 64, 2), DenseOp(new(Op), "fc/v", 8, 64, 512, 2)
	if lrFLOPs := u.FLOPs + v.FLOPs; lrFLOPs >= full.FLOPs {
		t.Errorf("rank-64 factorization (%v FLOPs) must beat dense (%v)", lrFLOPs, full.FLOPs)
	}
}

func TestAttentionOpsQuadraticInSeq(t *testing.T) {
	flops := func(seq int) float64 {
		g := &Graph{Name: "a", Batch: 1, DTypeBytes: 2}
		g.pushAttention(NewTransformerNames("a"), 1, seq, 256, 4, 2)
		return g.TotalFLOPs()
	}
	// Score+context terms are quadratic; doubling seq should more than
	// double total FLOPs but less than quadruple (linear QKV terms).
	r := flops(512) / flops(256)
	if r <= 2 || r >= 4 {
		t.Errorf("attention FLOPs ratio for 2x seq = %v, want in (2,4)", r)
	}
}

func TestEmbeddingOpIsMemoryBound(t *testing.T) {
	op := EmbeddingOp(new(Op), "e", 128, 8, 64, 100000, 4)
	if op.Unit != MemoryUnit {
		t.Error("embedding lookup must be memory-bound")
	}
	if op.InputBytes != float64(128*8*64)*4 {
		t.Errorf("gather bytes = %v", op.InputBytes)
	}
	// Operational intensity must be low (≈ pooling only).
	oi := op.FLOPs / (op.InputBytes + op.OutputBytes)
	if oi > 1 {
		t.Errorf("embedding operational intensity %v should be < 1", oi)
	}
}

func TestCollectiveOps(t *testing.T) {
	a2a := AllToAllOp(new(Op), "x", 1e6)
	if a2a.Unit != NetworkUnit || a2a.NetworkBytes != 1e6 {
		t.Error("AllToAll accounting wrong")
	}
	ar := AllReduceOp(new(Op), "g", 1e6)
	if ar.NetworkBytes != 2e6 {
		t.Errorf("ring all-reduce should move 2x param bytes, got %v", ar.NetworkBytes)
	}
}

func TestGraphTotals(t *testing.T) {
	g := &Graph{Name: "g", Batch: 1, DTypeBytes: 2}
	DenseOp(g.Push(), "a", 1, 10, 10, 2)
	DenseOp(g.Push(), "b", 1, 10, 10, 2).Weight = 3
	want := 2.0*10*10 + 3*2*10*10
	if g.TotalFLOPs() != want {
		t.Errorf("TotalFLOPs = %v, want %v", g.TotalFLOPs(), want)
	}
	if g.UnitFLOPs(MXU) != want {
		t.Errorf("UnitFLOPs(MXU) = %v", g.UnitFLOPs(MXU))
	}
	if g.UnitFLOPs(VPU) != 0 {
		t.Errorf("UnitFLOPs(VPU) = %v, want 0", g.UnitFLOPs(VPU))
	}
}

// mbconvOps expands one MBConv block, skip connection kept.
func mbconvOps(s MBConvSpec) []Op {
	g := &Graph{Name: "g", Batch: s.Batch, DTypeBytes: s.DType}
	g.PushMBConvStage(s, StageNames("b", 1), true)
	return g.Ops
}

// transformerOps expands one transformer block.
func transformerOps(s TransformerSpec) []Op {
	g := &Graph{Name: "g", Batch: s.Batch, DTypeBytes: s.DType}
	g.PushTransformer(&s, NewTransformerNames("t"))
	return g.Ops
}

func TestMBConvVsFusedFLOPs(t *testing.T) {
	base := MBConvSpec{In: 64, Out: 64, Kernel: 3, Stride: 1,
		Expansion: 4, Act: "relu", H: 28, W: 28, Batch: 1, DType: 2}
	fused := base
	fused.Fused = true
	sum := func(ops []Op) float64 {
		var s float64
		for _, op := range ops {
			s += op.FLOPs
		}
		return s
	}
	mb, fmb := sum(mbconvOps(base)), sum(mbconvOps(fused))
	// F-MBConv replaces 1×1 expand + 3×3 depthwise with a full 3×3 conv:
	// strictly more FLOPs.
	if fmb <= mb {
		t.Errorf("F-MBConv FLOPs (%v) must exceed MBConv (%v)", fmb, mb)
	}
}

func TestMBConvOperationalIntensityOrdering(t *testing.T) {
	// The crux of Figure 4b: fused blocks have higher operational
	// intensity at every depth.
	oi := func(fused bool, c int) float64 {
		s := MBConvSpec{Fused: fused, In: c, Out: c, Kernel: 3,
			Stride: 1, Expansion: 4, Act: "relu", H: 28, W: 28, Batch: 8, DType: 2}
		var flops, bytes float64
		for _, op := range mbconvOps(s) {
			flops += op.FLOPs
			bytes += op.InputBytes + op.OutputBytes + op.ParamBytes
		}
		return flops / bytes
	}
	for _, c := range []int{32, 64, 128} {
		if oi(true, c) <= oi(false, c) {
			t.Errorf("F-MBConv(%d) OI %v must exceed MBConv(%d) OI %v", c, oi(true, c), c, oi(false, c))
		}
	}
}

func TestMBConvResidualOnlyWhenShapesMatch(t *testing.T) {
	has := func(s MBConvSpec, name string) bool {
		for _, op := range mbconvOps(s) {
			if strings.HasSuffix(op.Name, "/"+name) {
				return true
			}
		}
		return false
	}
	same := MBConvSpec{In: 32, Out: 32, Kernel: 3, Stride: 1, Expansion: 4, Act: "relu", H: 8, W: 8, Batch: 1, DType: 2}
	if !has(same, "residual") {
		t.Error("stride-1 same-depth block must have a residual")
	}
	stride := same
	stride.Stride = 2
	if has(stride, "residual") {
		t.Error("stride-2 block must not have a residual")
	}
	widen := same
	widen.Out = 64
	if has(widen, "residual") {
		t.Error("channel-changing block must not have a residual")
	}
}

func TestMBConvSERatioAddsOp(t *testing.T) {
	s := MBConvSpec{In: 32, Out: 32, Kernel: 3, Stride: 1, Expansion: 4,
		SERatio: 0.25, Act: "relu", H: 8, W: 8, Batch: 1, DType: 2}
	found := false
	for _, op := range mbconvOps(s) {
		if op.Kind == SE {
			found = true
		}
	}
	if !found {
		t.Error("SERatio > 0 must produce an SE op")
	}
	s.SERatio = 0
	for _, op := range mbconvOps(s) {
		if op.Kind == SE {
			t.Error("SERatio == 0 must omit the SE op")
		}
	}
}

func TestTransformerSpecLayersWeighting(t *testing.T) {
	one := TransformerSpec{Seq: 64, Hidden: 128, Heads: 2, Act: "gelu", Layers: 1, Batch: 1, DType: 2}
	three := one
	three.Layers = 3
	sum := func(s TransformerSpec) float64 {
		var f float64
		for _, op := range transformerOps(s) {
			f += op.TotalFLOPs()
		}
		return f
	}
	if math.Abs(sum(three)/sum(one)-3) > 1e-9 {
		t.Errorf("3-layer block FLOPs should be 3x 1-layer, got ratio %v", sum(three)/sum(one))
	}
}

func TestTransformerSeqPoolHalves(t *testing.T) {
	s := TransformerSpec{Seq: 64, Hidden: 128, SeqPool: true, Batch: 1, DType: 2}
	if s.OutSeq() != 32 {
		t.Errorf("OutSeq = %d, want 32", s.OutSeq())
	}
	s.SeqPool = false
	if s.OutSeq() != 64 {
		t.Errorf("OutSeq = %d, want 64", s.OutSeq())
	}
}

func TestTransformerLowRankReducesFFNFLOPs(t *testing.T) {
	full := TransformerSpec{Seq: 64, Hidden: 512, Act: "relu", Layers: 1, Batch: 1, DType: 2}
	low := full
	low.LowRank = 0.2
	sum := func(s TransformerSpec) float64 {
		var f float64
		for _, op := range transformerOps(s) {
			f += op.TotalFLOPs()
		}
		return f
	}
	if sum(low) >= sum(full) {
		t.Errorf("low-rank FFN (%v) must reduce FLOPs vs full (%v)", sum(low), sum(full))
	}
}

func TestPrimerAddsDepthwise(t *testing.T) {
	s := TransformerSpec{Seq: 32, Hidden: 128, Primer: true, Batch: 1, DType: 2}
	found := false
	for _, op := range transformerOps(s) {
		if op.Kind == DepthwiseConv {
			found = true
		}
	}
	if !found {
		t.Error("Primer option must add a depthwise conv op")
	}
}

func TestActCostOrdering(t *testing.T) {
	if !(ActCost("relu") < ActCost("squared_relu") && ActCost("squared_relu") < ActCost("swish") && ActCost("swish") < ActCost("gelu")) {
		t.Error("activation cost ordering relu < squared_relu < swish < gelu violated")
	}
	if ActCost("identity") != 0 {
		t.Error("identity must be free")
	}
}

func TestOutDimProperty(t *testing.T) {
	f := func(in8, s8 uint8) bool {
		in, s := int(in8)+1, int(s8%4)+1
		out := outDim(in, s)
		return out >= 1 && out <= in && (s != 1 || out == in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
