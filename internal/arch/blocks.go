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

// MBConvNames are the op names of one MBConv layer, "<layer>/<op>".
type MBConvNames struct {
	fusedConv, expand, bn0, act0, depthwise, bn1, act1, se, project, bn2, residual string
}

// StageNames formats the op names of the first depth layers of the MBConv
// stage named stage, layer l being "<stage>/l<l>". Builders format them
// once and hand PushMBConvStage a prefix of them per graph.
func StageNames(stage string, depth int) []MBConvNames {
	out := make([]MBConvNames, depth)
	for l := range out {
		p := stage + "/l" + strconv.Itoa(l) + "/"
		out[l] = MBConvNames{
			fusedConv: p + "fused_conv", expand: p + "expand", bn0: p + "bn0", act0: p + "act0",
			depthwise: p + "depthwise", bn1: p + "bn1", act1: p + "act1", se: p + "se",
			project: p + "project", bn2: p + "bn2", residual: p + "residual",
		}
	}
	return out
}

// hasResidual reports whether the block adds its input back: only when
// the shapes match and the caller keeps skip connections.
func (s MBConvSpec) hasResidual(residual bool) bool {
	return residual && s.Stride == 1 && s.In == s.Out
}

// numOps returns the number of ops pushMBConv appends for the block.
func (s MBConvSpec) numOps(residual bool) int {
	n := 5 // the conv, norm and activation at mid depth, projection, norm
	if !s.Fused && s.Expansion != 1 {
		n += 3
	}
	if s.SERatio > 0 {
		n++
	}
	if s.hasResidual(residual) {
		n++
	}
	return n
}

// pushMBConv appends the block's operator sequence to g, named by n, and
// counts its parameters into g.Params. With residual false the
// skip-connection add is left out.
func (g *Graph) pushMBConv(s MBConvSpec, n *MBConvNames, residual bool) {
	b, dt := s.Batch, s.DType
	mid := s.In * s.Expansion
	oh, ow := outDim(s.H, s.Stride), outDim(s.W, s.Stride)
	actCost := ActCost(s.Act)
	push := func(op Op) { g.pushCounted(op, dt) }

	if s.Fused {
		// Fused conv replaces expansion 1×1 + depthwise k×k with one
		// vanilla k×k convolution In→mid (stride applied here).
		push(ConvOp(n.fusedConv, b, s.H, s.W, s.In, mid, s.Kernel, s.Stride, dt))
		push(NormOp(n.bn0, b*oh*ow*mid, mid, dt))
		push(ElementwiseOp(n.act0, b*oh*ow*mid, actCost, dt))
	} else {
		if s.Expansion != 1 {
			push(ConvOp(n.expand, b, s.H, s.W, s.In, mid, 1, 1, dt))
			push(NormOp(n.bn0, b*s.H*s.W*mid, mid, dt))
			push(ElementwiseOp(n.act0, b*s.H*s.W*mid, actCost, dt))
		}
		push(DepthwiseOp(n.depthwise, b, s.H, s.W, mid, s.Kernel, s.Stride, dt))
		push(NormOp(n.bn1, b*oh*ow*mid, mid, dt))
		push(ElementwiseOp(n.act1, b*oh*ow*mid, actCost, dt))
	}
	if s.SERatio > 0 {
		push(SEOp(n.se, b, oh, ow, mid, s.SERatio, dt))
	}
	// Projection back to Out channels.
	push(ConvOp(n.project, b, oh, ow, mid, s.Out, 1, 1, dt))
	push(NormOp(n.bn2, b*oh*ow*s.Out, s.Out, dt))
	if s.hasResidual(residual) {
		push(ElementwiseOp(n.residual, b*oh*ow*s.Out, 1, dt))
	}
}

// OutShape returns the block's output (h, w, channels).
func (s MBConvSpec) OutShape() (h, w, c int) {
	return outDim(s.H, s.Stride), outDim(s.W, s.Stride), s.Out
}

// stageLayer returns the spec of a later layer of the stage first opens:
// stride 1 on first.Out channels at input extent h.
func (s MBConvSpec) stageLayer(h int) MBConvSpec {
	s.In, s.H, s.W, s.Stride = s.Out, h, h, 1
	return s
}

// StageOps returns the number of ops PushMBConvStage appends for a stage
// of depth layers opened by first.
func (s MBConvSpec) StageOps(depth int, residual bool) int {
	if depth < 1 {
		return 0
	}
	return s.numOps(residual) + (depth-1)*s.stageLayer(0).numOps(residual)
}

// PushMBConvStage appends a stage of len(names) MBConv layers to g and
// counts their parameters into g.Params; names[l] names layer l's ops
// (StageNames). Layer 0 is first as given (its In, H, W and Stride);
// later layers run at stride 1 on first.Out channels. With residual false
// the skip-connection adds are left out (the CNN space's searchable skip
// removal). It returns the stage's output extent and channel depth.
func (g *Graph) PushMBConvStage(first MBConvSpec, names []MBConvNames, residual bool) (h, channels int) {
	h, channels = first.H, first.In
	ls := first
	for l := range names {
		if l > 0 {
			ls = first.stageLayer(h)
		}
		g.pushMBConv(ls, &names[l], residual)
		h, _, channels = ls.OutShape()
	}
	return h, channels
}

// TransformerSpec describes one transformer block from the ViT search
// space (Table 5): multi-head attention plus a two-layer FFN, with the
// searchable hidden size, low-rank projection, activation, optional
// sequence pooling, and optional Primer depthwise convolutions.
type TransformerSpec struct {
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

// TransformerNames are the op names of one transformer block,
// "<block>/<op>".
type TransformerNames struct {
	ln0, qkv, scores, softmax, context, proj, primer, attnResidual string
	ln1, ffn0, ffn0U, ffn0V, ffnAct, ffn1, ffnResidual, seqPool    string
}

// NewTransformerNames formats the op names of the transformer block named
// block. Builders format them once and reuse them for every graph.
func NewTransformerNames(block string) *TransformerNames {
	p, attn := block+"/", block+"/attn/"
	return &TransformerNames{
		ln0: p + "ln0", qkv: attn + "qkv", scores: attn + "scores", softmax: attn + "softmax",
		context: attn + "context", proj: attn + "proj", primer: p + "primer_dconv",
		attnResidual: p + "attn_residual", ln1: p + "ln1", ffn0: p + "ffn0",
		ffn0U: p + "ffn0/u", ffn0V: p + "ffn0/v", ffnAct: p + "ffn_act", ffn1: p + "ffn1",
		ffnResidual: p + "ffn_residual", seqPool: p + "seq_pool",
	}
}

// lowRank reports whether the FFN's first layer is rank-factorized.
func (s TransformerSpec) lowRank() bool { return s.LowRank > 0 && s.LowRank < 1 }

// NumOps returns the number of ops PushTransformer appends for the block.
func (s TransformerSpec) NumOps() int {
	n := 12 // ln0, five attention ops, residual, ln1, ffn0, act, ffn1, residual
	for _, opt := range []bool{s.Primer, s.lowRank(), s.SeqPool} {
		if opt {
			n++
		}
	}
	return n
}

// PushTransformer appends the transformer block's operator sequence to g,
// named by n, and counts its parameters into g.Params. The block's Layers
// count is expressed with op Weight so repeated layers share cost
// accounting without duplicating ops.
func (g *Graph) PushTransformer(s TransformerSpec, n *TransformerNames) {
	b, dt := s.Batch, s.DType
	heads := s.Heads
	if heads < 1 {
		heads = max(1, s.Hidden/64)
	}
	layers := float64(max(s.Layers, 1))
	push := func(op Op) {
		op.Weight = layers
		g.pushCounted(op, dt)
	}

	push(NormOp(n.ln0, b*s.Seq*s.Hidden, s.Hidden, dt))
	for _, op := range attentionOps(n, b, s.Seq, s.Hidden, heads, dt) {
		push(op)
	}
	if s.Primer {
		// Primer: 3×1 depthwise convolution over the sequence per head dim.
		push(DepthwiseOp(n.primer, b, s.Seq, 1, 3*s.Hidden, 3, 1, dt))
	}
	push(ElementwiseOp(n.attnResidual, b*s.Seq*s.Hidden, 1, dt))
	push(NormOp(n.ln1, b*s.Seq*s.Hidden, s.Hidden, dt))

	ffn := s.FFNRatio
	if ffn <= 0 {
		ffn = 4
	}
	inner := s.Hidden * ffn
	if s.lowRank() {
		rank := int(float64(s.Hidden) * s.LowRank)
		if rank < 8 {
			rank = 8
		}
		u, v := LowRankDenseOps(n.ffn0U, n.ffn0V, b*s.Seq, s.Hidden, inner, rank, dt)
		push(u)
		push(v)
	} else {
		push(DenseOp(n.ffn0, b*s.Seq, s.Hidden, inner, dt))
	}
	push(ElementwiseOp(n.ffnAct, b*s.Seq*inner, ActCost(s.Act), dt))
	push(DenseOp(n.ffn1, b*s.Seq, inner, s.Hidden, dt))
	push(ElementwiseOp(n.ffnResidual, b*s.Seq*s.Hidden, 1, dt))

	if s.SeqPool {
		g.pushCounted(PoolOp(n.seqPool, b*s.Seq*s.Hidden, b*s.Seq/2*s.Hidden, dt), dt)
	}
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
