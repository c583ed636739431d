package space

import (
	"fmt"

	"h2onas/internal/arch"
)

// CNNStage is one baseline stage of a convolutional model: Depth repeated
// blocks at Width output channels, the first block applying Stride.
type CNNStage struct {
	Width, Depth, Stride, Kernel, Expansion int
	Fused                                   bool
	SERatio                                 float64
}

// CNNConfig is the baseline convolutional model a CNN search space is
// anchored to.
type CNNConfig struct {
	Name       string
	StemWidth  int
	Stages     []CNNStage
	HeadWidth  int
	NumClasses int
	Resolution int
	WidthStep  int // the paper's 𝒳 increment
	Batch      int
	DType      int
}

// DefaultCNNConfig returns an EfficientNet-B0-shaped baseline with seven
// stages, the block count Table 5's CNN sizing assumes.
func DefaultCNNConfig() CNNConfig {
	return CNNConfig{
		Name:      "cnn-base",
		StemWidth: 32,
		Stages: []CNNStage{
			{Width: 16, Depth: 1, Stride: 1, Kernel: 3, Expansion: 1, SERatio: 0.25},
			{Width: 24, Depth: 2, Stride: 2, Kernel: 3, Expansion: 6, SERatio: 0.25, Fused: true},
			{Width: 40, Depth: 2, Stride: 2, Kernel: 5, Expansion: 6, SERatio: 0.25, Fused: true},
			{Width: 80, Depth: 3, Stride: 2, Kernel: 3, Expansion: 6, SERatio: 0.25},
			{Width: 112, Depth: 3, Stride: 1, Kernel: 5, Expansion: 6, SERatio: 0.25},
			{Width: 192, Depth: 4, Stride: 2, Kernel: 5, Expansion: 6, SERatio: 0.25},
			{Width: 320, Depth: 1, Stride: 1, Kernel: 3, Expansion: 6, SERatio: 0.25},
		},
		HeadWidth:  1280,
		NumClasses: 1000,
		Resolution: 224,
		WidthStep:  8,
		Batch:      128,
		DType:      2,
	}
}

// cnnResolutions are the Table 5 initial resolutions (8 choices, 224–600).
var cnnResolutions = []float64{224, 240, 260, 300, 380, 456, 528, 600}

// seRatios are the Table 5 squeeze-and-excite ratios (0 removes SE).
var seRatios = []float64{0, 1.0, 0.5, 0.25, 0.125}

// CNNSpace couples a CNN baseline with its Table 5 search space.
type CNNSpace struct {
	Config CNNConfig
	Space  *Space
}

// addConvStageDecisions adds Table 5's per-stage convolutional decisions
// under prefix: the block type, kernel, stride, expansion ratio,
// activation, tensor reshaping, SE ratio, skip connection, depth and
// width. The CNN space and the hybrid-ViT stem share them.
func addConvStageDecisions(s *Space, prefix string, st CNNStage, widthStep int) {
	s.Add(NewLabeledDecision(prefix+"type", []string{"mbconv", "fused_mbconv"}, []float64{0, 1}))
	s.Add(NewDecision(prefix+"kernel", 3, 5, 7))
	s.Add(NewDecision(prefix+"stride", 1, 2, 4))
	s.Add(NewDecision(prefix+"expansion", 1, 3, 4, 6))
	s.Add(NewLabeledDecision(prefix+"act", []string{"relu", "swish"}, []float64{0, 1}))
	s.Add(NewLabeledDecision(prefix+"reshape", []string{"none", "space_to_depth", "space_to_batch"}, []float64{0, 1, 2}))
	s.Add(NewDecision(prefix+"se_ratio", seRatios...))
	s.Add(NewLabeledDecision(prefix+"skip", []string{"none", "identity"}, []float64{0, 1}))
	s.Add(NewDecision(prefix+"depth", depthDeltas...))
	s.Add(NewDecision(prefix+"width", offsets(st.Width, widthStep, -5, 5, 8)...))
}

// decodeConvStage reads one stage's decisions back: the block every layer
// of the stage repeats (named name; In, H and W are the graph builder's to
// fill), its layer count, the reshape choice (0 none, 1 space-to-depth,
// 2 space-to-batch) and whether the skip connection is kept.
func decodeConvStage(s *Space, a Assignment, prefix, name string, st CNNStage, batch, dtype int) (spec arch.MBConvSpec, depth, reshape int, skip bool) {
	depth = st.Depth + int(s.Value(a, prefix+"depth"))
	if depth < 1 {
		depth = 1
	}
	act := "relu"
	if s.Value(a, prefix+"act") == 1 {
		act = "swish"
	}
	spec = arch.MBConvSpec{
		Name:      name,
		Fused:     s.Value(a, prefix+"type") == 1,
		Out:       int(s.Value(a, prefix+"width")),
		Kernel:    int(s.Value(a, prefix+"kernel")),
		Stride:    int(s.Value(a, prefix+"stride")),
		Expansion: int(s.Value(a, prefix+"expansion")),
		SERatio:   s.Value(a, prefix+"se_ratio"),
		Act:       act,
		Batch:     batch,
		DType:     dtype,
	}
	return spec, depth, int(s.Value(a, prefix+"reshape")), s.Value(a, prefix+"skip") == 1
}

// setConvStageBaseline points a at the choices reproducing baseline stage
// st: swish (the EfficientNet baseline), no reshape, skip kept.
func setConvStageBaseline(s *Space, a Assignment, prefix string, st CNNStage, fused bool) {
	t := 0.0
	if fused {
		t = 1
	}
	s.setNearest(a, prefix+"type", t)
	s.setNearest(a, prefix+"kernel", float64(st.Kernel))
	s.setNearest(a, prefix+"stride", float64(st.Stride))
	s.setNearest(a, prefix+"expansion", float64(st.Expansion))
	s.setNearest(a, prefix+"act", 1)
	s.setNearest(a, prefix+"reshape", 0)
	s.setNearest(a, prefix+"se_ratio", st.SERatio)
	s.setNearest(a, prefix+"skip", 1)
	s.setNearest(a, prefix+"depth", 0)
	s.setNearest(a, prefix+"width", float64(st.Width))
}

// NewCNNSpace constructs the convolutional search space of Table 5: the
// per-stage decisions plus the global initial resolution.
func NewCNNSpace(cfg CNNConfig) *CNNSpace {
	s := NewSpace("cnn/" + cfg.Name)
	for i, st := range cfg.Stages {
		addConvStageDecisions(s, fmt.Sprintf("block%d_", i), st, cfg.WidthStep)
	}
	s.Add(NewDecision("resolution", cnnResolutions...))
	return &CNNSpace{Config: cfg, Space: s}
}

// CNNArch is a decoded convolutional architecture.
type CNNArch struct {
	Resolution int
	Blocks     []arch.MBConvSpec // one per stage; Depths holds repeats
	Depths     []int
	Reshapes   []int // 0 none, 1 space-to-depth, 2 space-to-batch
	Skips      []bool
}

// Decode maps an assignment onto a CNNArch.
func (c *CNNSpace) Decode(a Assignment) CNNArch {
	if err := c.Space.Validate(a); err != nil {
		panic(err)
	}
	out := CNNArch{Resolution: int(c.Space.Value(a, "resolution"))}
	for i, st := range c.Config.Stages {
		spec, depth, reshape, skip := decodeConvStage(c.Space, a, fmt.Sprintf("block%d_", i),
			fmt.Sprintf("stage%d", i), st, c.Config.Batch, c.Config.DType)
		out.Blocks = append(out.Blocks, spec)
		out.Depths = append(out.Depths, depth)
		out.Reshapes = append(out.Reshapes, reshape)
		out.Skips = append(out.Skips, skip)
	}
	return out
}

// BaselineAssignment returns the assignment reproducing the baseline
// stages at the baseline resolution.
func (c *CNNSpace) BaselineAssignment() Assignment {
	a := make(Assignment, len(c.Space.Decisions))
	for i, st := range c.Config.Stages {
		setConvStageBaseline(c.Space, a, fmt.Sprintf("block%d_", i), st, st.Fused)
	}
	c.Space.setNearest(a, "resolution", float64(c.Config.Resolution))
	return a
}

// Graph expands a decoded CNN into its operator graph: stem convolution,
// the staged (fused) MBConv blocks, head convolution, pooling and the
// classifier.
func (c *CNNSpace) Graph(ar CNNArch) *arch.Graph {
	cfg := c.Config
	b, dt := cfg.Batch, cfg.DType
	g := &arch.Graph{Name: cfg.Name, Batch: b, DTypeBytes: dt}

	res := ar.Resolution
	g.Add(arch.ConvOp("stem", b, res, res, 3, cfg.StemWidth, 3, 2, dt))
	h := (res + 1) / 2
	in := cfg.StemWidth
	g.Params += float64(3*3*3*cfg.StemWidth + cfg.StemWidth)

	for i, spec := range ar.Blocks {
		if ar.Reshapes[i] != 0 {
			g.Add(arch.SpaceToDepthOp(fmt.Sprintf("stage%d/reshape", i), b*h*h*in, dt))
		}
		spec.In, spec.H, spec.W = in, h, h
		h, in = g.AddMBConvStage(spec, ar.Depths[i], ar.Skips[i])
	}
	g.Add(arch.ConvOp("head", b, h, h, in, cfg.HeadWidth, 1, 1, dt))
	g.Params += float64(in*cfg.HeadWidth + cfg.HeadWidth)
	g.Add(arch.PoolOp("avgpool", b*h*h*cfg.HeadWidth, b*cfg.HeadWidth, dt))
	g.Add(arch.DenseOp("classifier", b, cfg.HeadWidth, cfg.NumClasses, dt))
	g.Params += float64(cfg.HeadWidth*cfg.NumClasses + cfg.NumClasses)
	return g
}
