// Package models is the model zoo: CoAtNet and CoAtNet-H (Figures 6/7,
// Table 3), EfficientNet-X and EfficientNet-H (Table 4), the baseline and
// H₂O-NAS-optimized DLRM (Figure 8), and the synthetic production-model
// population of Figure 10 — all expressed as arch.Graph builders the
// hardware simulator consumes, with quality.Traits for the accuracy model.
package models

import (
	"fmt"

	"h2onas/internal/arch"
	"h2onas/internal/quality"
)

// CoAtNetSpec describes one CoAtNet-style hybrid model: a convolutional
// stem, two MBConv stages, and two transformer stages.
type CoAtNetSpec struct {
	Name       string
	ConvDepths [2]int // S1, S2 MBConv layer counts
	TFMDepths  [2]int // S3, S4 transformer layer counts
	Widths     [5]int // stem, S1, S2, S3, S4
	Resolution int
	Act        string // transformer activation
	Batch      int    // per-chip batch
}

// coatNetVariants are the baseline family, shaped after Dai et al.'s
// CoAtNet-0…5 scaling.
var coatNetVariants = []CoAtNetSpec{
	{Name: "CoAtNet-0", ConvDepths: [2]int{2, 3}, TFMDepths: [2]int{5, 2}, Widths: [5]int{64, 96, 192, 384, 768}},
	{Name: "CoAtNet-1", ConvDepths: [2]int{2, 6}, TFMDepths: [2]int{14, 2}, Widths: [5]int{64, 96, 192, 384, 768}},
	{Name: "CoAtNet-2", ConvDepths: [2]int{2, 6}, TFMDepths: [2]int{14, 2}, Widths: [5]int{128, 128, 256, 512, 1024}},
	{Name: "CoAtNet-3", ConvDepths: [2]int{2, 6}, TFMDepths: [2]int{14, 2}, Widths: [5]int{192, 192, 384, 768, 1536}},
	{Name: "CoAtNet-4", ConvDepths: [2]int{2, 12}, TFMDepths: [2]int{28, 2}, Widths: [5]int{192, 192, 384, 768, 1536}},
	{Name: "CoAtNet-5", ConvDepths: [2]int{2, 12}, TFMDepths: [2]int{28, 2}, Widths: [5]int{256, 256, 512, 1280, 2048}},
}

// CoAtNet returns the baseline variant i (0–5) at 224 px with ReLU
// transformer activations and a per-chip batch of 64 (Table 3).
func CoAtNet(i int) CoAtNetSpec {
	if i < 0 || i >= len(coatNetVariants) {
		panic(fmt.Sprintf("models: CoAtNet variant %d outside 0..%d", i, len(coatNetVariants)-1))
	}
	s := coatNetVariants[i]
	s.Resolution = 224
	s.Act = "relu"
	s.Batch = 64
	return s
}

// CoAtNetH returns the H₂O-NAS-optimized variant i: the Table 3 recipe of
// a deeper convolution section (+4 layers on S2), a shrunken pre-training
// resolution (224 → 160), and Squared ReLU in the transformer section.
func CoAtNetH(i int) CoAtNetSpec {
	s := CoAtNet(i)
	s.Name = fmt.Sprintf("CoAtNet-H%d", i)
	s.ConvDepths[1] += 4
	s.Resolution = 160
	s.Act = "squared_relu"
	return s
}

// CoAtNetFamilySize returns the number of baseline variants.
func CoAtNetFamilySize() int { return len(coatNetVariants) }

// Graph expands the spec into its operator graph.
func (s CoAtNetSpec) Graph() *arch.Graph {
	const dt = 2 // bf16
	b := s.Batch
	g := &arch.Graph{Name: s.Name, Batch: b, DTypeBytes: dt}

	res := s.Resolution
	// Stem ("S0"): stride-2 conv pair at /2, so the stage resolutions run
	// /4 (S1), /8 (S2), /16 (S3), /32 (S4) as in CoAtNet.
	g.Push(arch.ConvOp(s.Name+"/stem0", b, res, res, 3, s.Widths[0], 3, 2, dt))
	h := (res + 1) / 2
	g.Push(arch.ConvOp(s.Name+"/stem1", b, h, h, s.Widths[0], s.Widths[0], 3, 1, dt))
	g.Params += float64(3*3*3*s.Widths[0] + 3*3*s.Widths[0]*s.Widths[0] + 2*s.Widths[0])

	in := s.Widths[0]
	// S1, S2: MBConv stages, each downsampling once.
	for stage := 0; stage < 2; stage++ {
		h, in = g.PushMBConvStage(arch.MBConvSpec{
			In: in, Out: s.Widths[1+stage], Kernel: 3, Expansion: 4,
			Stride: 2, Act: "gelu", H: h, W: h, Batch: b, DType: dt,
		}, arch.StageNames(fmt.Sprintf("%s/s%d", s.Name, stage+1), s.ConvDepths[stage]), true)
	}

	// S3, S4: transformer stages; S3 runs at /16, S4 at /32.
	for stage := 0; stage < 2; stage++ {
		width := s.Widths[3+stage]
		// Downsampling projection between stages.
		g.Push(arch.ConvOp(fmt.Sprintf("%s/s%d/downsample", s.Name, stage+3), b, h, h, in, width, 2, 2, dt))
		g.Params += float64(2*2*in*width + width)
		h = (h + 1) / 2
		in = width
		g.PushTransformer(arch.TransformerSpec{
			Seq:    h * h,
			Hidden: width,
			Heads:  width / 64,
			Act:    s.Act,
			Layers: s.TFMDepths[stage],
			Batch:  b,
			DType:  dt,
		}, arch.NewTransformerNames(fmt.Sprintf("%s/s%d/tfm", s.Name, stage+3)))
	}
	g.Push(arch.PoolOp(s.Name+"/pool", b*h*h*in, b*in, dt))
	g.Push(arch.DenseOp(s.Name+"/classifier", b, in, 1000, dt))
	g.Params += float64(in*1000 + 1000)
	return g
}

// ConvDepth returns the convolution-section layer count (the Table 3
// "deeper convolution" knob counts S2; the paper's 12 → 16).
func (s CoAtNetSpec) ConvDepth() int { return s.ConvDepths[1] }

// Traits returns the accuracy-model inputs for this spec relative to the
// same-index baseline.
func (s CoAtNetSpec) Traits(baseline CoAtNetSpec) quality.Traits {
	g := s.Graph()
	return quality.Traits{
		Params:         g.Params,
		FLOPs:          g.TotalFLOPs() / float64(s.Batch),
		ConvDepth:      s.ConvDepth(),
		BaseConvDepth:  baseline.ConvDepth(),
		Resolution:     s.Resolution,
		BaseResolution: baseline.Resolution,
		Activation:     s.Act,
	}
}
