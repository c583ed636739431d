package arch

import (
	"fmt"
	"strconv"
)

// ActCost returns the approximate VPU FLOPs per element of an activation
// function, used to cost the searchable activations from Table 5.
func ActCost(act string) int {
	switch act {
	case "identity":
		return 0
	case "relu":
		return 1
	case "squared_relu":
		return 2
	case "swish", "sigmoid":
		return 4
	case "gelu":
		return 8
	case "tanh":
		return 4
	default:
		return 2
	}
}

// MBConvSpec describes one (possibly fused) mobile inverted bottleneck
// block, the macro structure of Figure 4a. All searchable dimensions of
// the CNN space map onto its fields.
type MBConvSpec struct {
	Name      string
	Fused     bool // F-MBConv: expansion+depthwise fused into one conv
	In, Out   int  // input/output channel depth
	Kernel    int  // depthwise / fused kernel size
	Stride    int
	Expansion int     // expansion ratio (1, 3, 4, 6)
	SERatio   float64 // 0 disables squeeze-and-excitation
	Act       string  // activation function name
	H, W      int     // input spatial resolution
	Batch     int
	DType     int // bytes per element
}

// Ops expands the block into its operator sequence.
func (s MBConvSpec) Ops() []*Op {
	b, dt := s.Batch, s.DType
	mid := s.In * s.Expansion
	oh, ow := outDim(s.H, s.Stride), outDim(s.W, s.Stride)
	var ops []*Op
	add := func(o *Op) { ops = append(ops, o) }
	actCost := ActCost(s.Act)

	if s.Fused {
		// Fused conv replaces expansion 1×1 + depthwise k×k with one
		// vanilla k×k convolution In→mid (stride applied here).
		add(ConvOp(s.Name+"/fused_conv", b, s.H, s.W, s.In, mid, s.Kernel, s.Stride, dt))
		add(NormOp(s.Name+"/bn0", b*oh*ow*mid, mid, dt))
		add(ElementwiseOp(s.Name+"/act0", b*oh*ow*mid, actCost, dt))
	} else {
		if s.Expansion != 1 {
			add(ConvOp(s.Name+"/expand", b, s.H, s.W, s.In, mid, 1, 1, dt))
			add(NormOp(s.Name+"/bn0", b*s.H*s.W*mid, mid, dt))
			add(ElementwiseOp(s.Name+"/act0", b*s.H*s.W*mid, actCost, dt))
		}
		add(DepthwiseOp(s.Name+"/depthwise", b, s.H, s.W, mid, s.Kernel, s.Stride, dt))
		add(NormOp(s.Name+"/bn1", b*oh*ow*mid, mid, dt))
		add(ElementwiseOp(s.Name+"/act1", b*oh*ow*mid, actCost, dt))
	}
	if s.SERatio > 0 {
		add(SEOp(s.Name+"/se", b, oh, ow, mid, s.SERatio, dt))
	}
	// Projection back to Out channels.
	add(ConvOp(s.Name+"/project", b, oh, ow, mid, s.Out, 1, 1, dt))
	add(NormOp(s.Name+"/bn2", b*oh*ow*s.Out, s.Out, dt))
	if s.Stride == 1 && s.In == s.Out {
		add(ElementwiseOp(s.Name+"/residual", b*oh*ow*s.Out, 1, dt))
	}
	return ops
}

// OutShape returns the block's output (h, w, channels).
func (s MBConvSpec) OutShape() (h, w, c int) {
	return outDim(s.H, s.Stride), outDim(s.W, s.Stride), s.Out
}

// AddMBConvStage appends a stage of depth MBConv layers to g and counts
// their parameters into g.Params. Layer 0 is first as given (its In, H, W
// and Stride); later layers run at stride 1 on first.Out channels. Layer l
// is named "<first.Name>/l<l>". With residual false the skip-connection
// adds are left out (the CNN space's searchable skip removal). It returns
// the stage's output extent and channel depth.
func (g *Graph) AddMBConvStage(first MBConvSpec, depth int, residual bool) (h, channels int) {
	h, channels = first.H, first.In
	for layer := 0; layer < depth; layer++ {
		ls := first
		ls.Name = first.Name + "/l" + strconv.Itoa(layer)
		ls.In, ls.H, ls.W = channels, h, h
		if layer > 0 {
			ls.Stride = 1
		}
		for _, op := range ls.Ops() {
			if !residual && op.Name == ls.Name+"/residual" {
				continue
			}
			g.Add(op)
			g.Params += op.ParamBytes / float64(ls.DType)
		}
		h, _, channels = ls.OutShape()
	}
	return h, channels
}

// TransformerSpec describes one transformer block from the ViT search
// space (Table 5): multi-head attention plus a two-layer FFN, with the
// searchable hidden size, low-rank projection, activation, optional
// sequence pooling, and optional Primer depthwise convolutions.
type TransformerSpec struct {
	Name     string
	Seq      int // sequence length in
	Hidden   int
	Heads    int
	FFNRatio int     // FFN expansion (typically 4)
	LowRank  float64 // fraction of hidden used as projection rank; 1 = full
	Act      string
	SeqPool  bool // halve sequence length after the block (funnel)
	Primer   bool // channel-wise depth convolutions after QKV projection
	Layers   int  // identical layers in this block
	Batch    int
	DType    int
}

// Ops expands the transformer block into its operator sequence. The block's
// Layers count is expressed with op Weight so repeated layers share cost
// accounting without duplicating ops.
func (s TransformerSpec) Ops() []*Op {
	b, dt := s.Batch, s.DType
	heads := s.Heads
	if heads < 1 {
		heads = max(1, s.Hidden/64)
	}
	var ops []*Op
	add := func(list ...*Op) { ops = append(ops, list...) }

	add(NormOp(s.Name+"/ln0", b*s.Seq*s.Hidden, s.Hidden, dt))
	add(AttentionOps(s.Name+"/attn", b, s.Seq, s.Hidden, heads, dt)...)
	if s.Primer {
		// Primer: 3×1 depthwise convolution over the sequence per head dim.
		add(DepthwiseOp(s.Name+"/primer_dconv", b, s.Seq, 1, 3*s.Hidden, 3, 1, dt))
	}
	add(ElementwiseOp(s.Name+"/attn_residual", b*s.Seq*s.Hidden, 1, dt))
	add(NormOp(s.Name+"/ln1", b*s.Seq*s.Hidden, s.Hidden, dt))

	ffn := s.FFNRatio
	if ffn <= 0 {
		ffn = 4
	}
	inner := s.Hidden * ffn
	if s.LowRank > 0 && s.LowRank < 1 {
		rank := int(float64(s.Hidden) * s.LowRank)
		if rank < 8 {
			rank = 8
		}
		add(LowRankDenseOps(s.Name+"/ffn0", b*s.Seq, s.Hidden, inner, rank, dt)...)
	} else {
		add(DenseOp(s.Name+"/ffn0", b*s.Seq, s.Hidden, inner, dt))
	}
	add(ElementwiseOp(s.Name+"/ffn_act", b*s.Seq*inner, ActCost(s.Act), dt))
	add(DenseOp(s.Name+"/ffn1", b*s.Seq, inner, s.Hidden, dt))
	add(ElementwiseOp(s.Name+"/ffn_residual", b*s.Seq*s.Hidden, 1, dt))

	layers := s.Layers
	if layers < 1 {
		layers = 1
	}
	for _, op := range ops {
		op.Weight = float64(layers)
	}
	if s.SeqPool {
		ops = append(ops, PoolOp(s.Name+"/seq_pool", b*s.Seq*s.Hidden, b*s.Seq/2*s.Hidden, dt))
	}
	return ops
}

// OutSeq returns the sequence length after the block.
func (s TransformerSpec) OutSeq() int {
	if s.SeqPool {
		out := s.Seq / 2
		if out < 1 {
			out = 1
		}
		return out
	}
	return s.Seq
}

// String summarizes the block.
func (s MBConvSpec) String() string {
	kind := "MBConv"
	if s.Fused {
		kind = "F-MBConv"
	}
	return fmt.Sprintf("%s(k%d,s%d,e%d,%d→%d,%s)", kind, s.Kernel, s.Stride, s.Expansion, s.In, s.Out, s.Act)
}
