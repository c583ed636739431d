package models

import (
	"fmt"
	"math"

	"h2onas/internal/arch"
	"h2onas/internal/space"
)

// enetBaseStages is the B0 backbone with the EfficientNet-X hardware
// specializations — the baseline the CNN search space is anchored to:
// fused MBConv in the early (shallow, wide-spatial) stages where fusion's
// higher operational intensity wins, unfused MBConv deeper where channel
// depth makes depthwise factorization cheaper — exactly the Figure 4
// trade-off.
var enetBaseStages = space.DefaultCNNConfig().Stages

// enetScaling is the (widthMult, depthMult, resolution) compound-scaling
// table for B0–B7.
var enetScaling = [8]struct {
	w, d float64
	res  int
}{
	{1.0, 1.0, 224}, {1.0, 1.1, 240}, {1.1, 1.2, 260}, {1.2, 1.4, 300},
	{1.4, 1.8, 380}, {1.6, 2.2, 456}, {1.8, 2.6, 528}, {2.0, 3.1, 600},
}

// ENetSpec is one (scaled) EfficientNet model.
type ENetSpec struct {
	Name       string
	Stages     []space.CNNStage
	Resolution int
	StemWidth  int
	HeadWidth  int
	Batch      int
}

// EfficientNetX returns baseline variant i (B0–B7) of the EfficientNet-X
// family at the standard per-chip training batch of 128.
func EfficientNetX(i int) ENetSpec {
	if i < 0 || i > 7 {
		panic(fmt.Sprintf("models: EfficientNet variant %d outside 0..7", i))
	}
	sc := enetScaling[i]
	stages := make([]space.CNNStage, len(enetBaseStages))
	for j, st := range enetBaseStages {
		st.Width = roundFilters(float64(st.Width) * sc.w)
		st.Depth = int(math.Ceil(float64(st.Depth) * sc.d))
		stages[j] = st
	}
	return ENetSpec{
		Name:       fmt.Sprintf("EfficientNet-X-B%d", i),
		Stages:     stages,
		Resolution: sc.res,
		StemWidth:  roundFilters(32 * sc.w),
		HeadWidth:  roundFilters(1280 * sc.w),
		Batch:      128,
	}
}

// EfficientNetH returns the H₂O-NAS variant: identical to the baseline for
// B0–B4 (the search found no improvement — those models are already at
// their Pareto front), while B5–B7 change the expansion factors of the
// heavy deep stages from a uniform 6 to a mixture of 4 and 6 inside the
// dynamically fused MBConv (Section 7.1.3).
func EfficientNetH(i int) ENetSpec {
	s := EfficientNetX(i)
	if i < 5 {
		return s
	}
	s.Name = fmt.Sprintf("EfficientNet-H-B%d", i)
	for j := range s.Stages {
		// The searched mixture: expansion 4 in the widest stages (4–6),
		// keeping 6 elsewhere.
		if j >= 4 && s.Stages[j].Expansion == 6 {
			s.Stages[j].Expansion = 4
		}
	}
	return s
}

// Graph expands the spec into its operator graph.
func (s ENetSpec) Graph() *arch.Graph {
	const dt = 2
	b := s.Batch
	g := &arch.Graph{Name: s.Name, Batch: b, DTypeBytes: dt}

	res := s.Resolution
	// EfficientNet-X space-to-depth stem: reshape + stride-2 conv.
	g.Push(arch.SpaceToDepthOp(s.Name+"/s2d", b*res*res*3, dt))
	g.Push(arch.ConvOp(s.Name+"/stem", b, res, res, 3, s.StemWidth, 3, 2, dt))
	g.Params += float64(3*3*3*s.StemWidth + s.StemWidth)
	h := (res + 1) / 2
	in := s.StemWidth

	for i, st := range s.Stages {
		h, in = g.PushMBConvStage(arch.MBConvSpec{
			In: in, Out: st.Width, Kernel: st.Kernel,
			Expansion: st.Expansion, SERatio: st.SERatio,
			Fused: st.Fused, Stride: st.Stride, Act: "swish",
			H: h, W: h, Batch: b, DType: dt,
		}, arch.StageNames(fmt.Sprintf("%s/s%d", s.Name, i), st.Depth), true)
	}
	g.Push(arch.ConvOp(s.Name+"/head", b, h, h, in, s.HeadWidth, 1, 1, dt))
	g.Params += float64(in*s.HeadWidth + s.HeadWidth)
	g.Push(arch.PoolOp(s.Name+"/pool", b*h*h*s.HeadWidth, b*s.HeadWidth, dt))
	g.Push(arch.DenseOp(s.Name+"/classifier", b, s.HeadWidth, 1000, dt))
	g.Params += float64(s.HeadWidth*1000 + 1000)
	return g
}

// ServingGraph returns the graph at a serving batch size.
func (s ENetSpec) ServingGraph(batch int) *arch.Graph {
	c := s
	c.Batch = batch
	return c.Graph()
}

// roundFilters rounds a scaled width to the nearest multiple of 8, the
// EfficientNet convention (and the hardware-friendly alignment).
func roundFilters(w float64) int {
	r := int(w+4) / 8 * 8
	if r < 8 {
		return 8
	}
	return r
}
