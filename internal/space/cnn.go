package space

import (
	"fmt"
	"slices"

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

// CNNSpace couples a CNN baseline with its Table 5 search space. Decode
// and Graph are safe for concurrent use: they only read what the
// constructor resolved.
type CNNSpace struct {
	Config CNNConfig
	Space  *Space

	// Resolved once at construction, so decoding and expanding a
	// candidate formats no name and looks none up: the stages and the
	// resolution decision.
	stages        []convStage
	resolutionIdx int
}

// convStage is one conv stage of a space, resolved at construction: the
// index of each of its decisions, the op names of every layer its
// searched depth can reach and the name of its reshape op.
type convStage struct {
	typ, kernel, stride, expansion, act, reshape, seRatio, skip, depth, width int

	names       []arch.MBConvNames
	reshapeName string
}

// addConvStageDecisions adds Table 5's per-stage convolutional decisions
// under prefix: the block type, kernel, stride, expansion ratio,
// activation, tensor reshaping, SE ratio, skip connection, depth and
// width. The CNN space and the hybrid-ViT stem share them. The stage's
// layers are named "<stage>/l<l>".
func addConvStageDecisions(s *Space, prefix, stage string, st CNNStage, widthStep int) convStage {
	var cs convStage
	cs.typ = s.Add(NewLabeledDecision(prefix+"type", []string{"mbconv", "fused_mbconv"}, []float64{0, 1}))
	cs.kernel = s.Add(NewDecision(prefix+"kernel", 3, 5, 7))
	cs.stride = s.Add(NewDecision(prefix+"stride", 1, 2, 4))
	cs.expansion = s.Add(NewDecision(prefix+"expansion", 1, 3, 4, 6))
	cs.act = s.Add(NewLabeledDecision(prefix+"act", []string{"relu", "swish"}, []float64{0, 1}))
	cs.reshape = s.Add(NewLabeledDecision(prefix+"reshape", []string{"none", "space_to_depth", "space_to_batch"}, []float64{0, 1, 2}))
	cs.seRatio = s.Add(NewDecision(prefix+"se_ratio", seRatios...))
	cs.skip = s.Add(NewLabeledDecision(prefix+"skip", []string{"none", "identity"}, []float64{0, 1}))
	cs.depth = s.Add(NewDecision(prefix+"depth", depthDeltas...))
	cs.width = s.Add(NewDecision(prefix+"width", offsets(st.Width, widthStep, -5, 5, 8)...))
	cs.names = arch.StageNames(stage, stageDepth(st, slices.Max(depthDeltas)))
	cs.reshapeName = stage + "/reshape"
	return cs
}

// stageDepth is the layer count of baseline stage st under depth offset
// delta: at least one layer.
func stageDepth(st CNNStage, delta float64) int {
	return max(1, st.Depth+int(delta))
}

// decode reads the stage's decisions back: the block every layer of the
// stage repeats (In, H and W are the graph builder's to fill), its layer
// count, the reshape choice (0 none, 1 space-to-depth, 2 space-to-batch)
// and whether the skip connection is kept.
func (cs *convStage) decode(s *Space, a Assignment, st CNNStage, batch, dtype int) (spec arch.MBConvSpec, depth, reshape int, skip bool) {
	val := func(i int) float64 { return s.Decisions[i].Values[a[i]] }
	act := "relu"
	if val(cs.act) == 1 {
		act = "swish"
	}
	spec = arch.MBConvSpec{
		Fused:     val(cs.typ) == 1,
		Out:       int(val(cs.width)),
		Kernel:    int(val(cs.kernel)),
		Stride:    int(val(cs.stride)),
		Expansion: int(val(cs.expansion)),
		SERatio:   val(cs.seRatio),
		Act:       act,
		Batch:     batch,
		DType:     dtype,
	}
	return spec, stageDepth(st, val(cs.depth)), int(val(cs.reshape)), val(cs.skip) == 1
}

// setBaseline points a at the choices reproducing baseline stage st:
// swish (the EfficientNet baseline), no reshape, skip kept.
func (cs *convStage) setBaseline(s *Space, a Assignment, st CNNStage, fused bool) {
	t := 0.0
	if fused {
		t = 1
	}
	s.setNearest(a, cs.typ, t)
	s.setNearest(a, cs.kernel, float64(st.Kernel))
	s.setNearest(a, cs.stride, float64(st.Stride))
	s.setNearest(a, cs.expansion, float64(st.Expansion))
	s.setNearest(a, cs.act, 1)
	s.setNearest(a, cs.reshape, 0)
	s.setNearest(a, cs.seRatio, st.SERatio)
	s.setNearest(a, cs.skip, 1)
	s.setNearest(a, cs.depth, 0)
	s.setNearest(a, cs.width, float64(st.Width))
}

// NewCNNSpace constructs the convolutional search space of Table 5: the
// per-stage decisions plus the global initial resolution.
func NewCNNSpace(cfg CNNConfig) *CNNSpace {
	s := NewSpace("cnn/" + cfg.Name)
	c := &CNNSpace{Config: cfg, Space: s}
	for i, st := range cfg.Stages {
		c.stages = append(c.stages, addConvStageDecisions(s, fmt.Sprintf("block%d_", i), fmt.Sprintf("stage%d", i), st, cfg.WidthStep))
	}
	c.resolutionIdx = s.Add(NewDecision("resolution", cnnResolutions...))
	return c
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
	var out CNNArch
	c.DecodeInto(a, &out)
	return out
}

// DecodeInto decodes the assignment into out, reusing out's slices when
// their capacity allows, as ViTSpace.DecodeInto does.
func (c *CNNSpace) DecodeInto(a Assignment, out *CNNArch) {
	if err := c.Space.Validate(a); err != nil {
		panic(err)
	}
	n := len(c.stages)
	if cap(out.Depths) < n || cap(out.Reshapes) < n {
		ints := make([]int, 2*n) // Depths and Reshapes share one allocation
		out.Depths, out.Reshapes = ints[:n:n], ints[n:]
	}
	out.Resolution = int(c.Space.Decisions[c.resolutionIdx].Values[a[c.resolutionIdx]])
	out.Blocks, out.Depths, out.Reshapes, out.Skips = resized(out.Blocks, n), out.Depths[:n], out.Reshapes[:n], resized(out.Skips, n)
	for i, st := range c.Config.Stages {
		out.Blocks[i], out.Depths[i], out.Reshapes[i], out.Skips[i] = c.stages[i].decode(c.Space, a, st, c.Config.Batch, c.Config.DType)
	}
}

// BaselineAssignment returns the assignment reproducing the baseline
// stages at the baseline resolution.
func (c *CNNSpace) BaselineAssignment() Assignment {
	a := make(Assignment, len(c.Space.Decisions))
	for i, st := range c.Config.Stages {
		c.stages[i].setBaseline(c.Space, a, st, st.Fused)
	}
	c.Space.setNearest(a, c.resolutionIdx, float64(c.Config.Resolution))
	return a
}

// Graph expands a candidate Decode returned into its operator graph: stem
// convolution, the staged (fused) MBConv blocks, head convolution,
// pooling and the classifier. The graph's op storage is allocated once,
// sized to the candidate.
func (c *CNNSpace) Graph(ar CNNArch) *arch.Graph {
	g := new(arch.Graph)
	c.GraphInto(ar, g)
	return g
}

// GraphInto builds the candidate's graph into g, replacing what g held and
// reusing its storage (arch.Graph.Reset), as DLRMSpace.GraphInto does.
func (c *CNNSpace) GraphInto(ar CNNArch, g *arch.Graph) {
	cfg := c.Config
	b, dt := cfg.Batch, cfg.DType

	n := 4 // stem, head, pool, classifier
	in := cfg.StemWidth
	for i, spec := range ar.Blocks {
		if ar.Reshapes[i] != 0 {
			n++
		}
		spec.In = in
		n += spec.StageOps(ar.Depths[i], ar.Skips[i])
		in = spec.Out
	}
	g.Reset(cfg.Name, b, dt, n)

	res := ar.Resolution
	g.Push(arch.ConvOp("stem", b, res, res, 3, cfg.StemWidth, 3, 2, dt))
	h := (res + 1) / 2
	in = cfg.StemWidth
	g.Params += float64(3*3*3*cfg.StemWidth + cfg.StemWidth)

	for i, spec := range ar.Blocks {
		if ar.Reshapes[i] != 0 {
			g.Push(arch.SpaceToDepthOp(c.stages[i].reshapeName, b*h*h*in, dt))
		}
		spec.In, spec.H, spec.W = in, h, h
		h, in = g.PushMBConvStage(spec, c.stages[i].names[:ar.Depths[i]], ar.Skips[i])
	}
	g.Push(arch.ConvOp("head", b, h, h, in, cfg.HeadWidth, 1, 1, dt))
	g.Params += float64(in*cfg.HeadWidth + cfg.HeadWidth)
	g.Push(arch.PoolOp("avgpool", b*h*h*cfg.HeadWidth, b*cfg.HeadWidth, dt))
	g.Push(arch.DenseOp("classifier", b, cfg.HeadWidth, cfg.NumClasses, dt))
	g.Params += float64(cfg.HeadWidth*cfg.NumClasses + cfg.NumClasses)
}
