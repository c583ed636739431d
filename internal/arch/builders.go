package arch

// The constructors below compute each op's FLOPs/bytes from tensor
// shapes. Each fills op, which must be zero — Graph.Push hands out a
// zero slot, and new(Op) is one — and returns it. Conventions: b is the
// per-chip batch size, dt is bytes per element, multiply-adds count as
// 2 FLOPs.

// ConvOp builds a standard 2-D convolution over an h×w×cin input with a
// k×k kernel, stride s, and cout output channels. It runs on the MXU.
func ConvOp(op *Op, name string, b, h, w, cin, cout, k, s, dt int) *Op {
	oh, ow := outDim(h, s), outDim(w, s)
	op.Name, op.Kind, op.Unit = name, Conv2D, MXU
	op.FLOPs = 2 * float64(b*oh*ow) * float64(k*k*cin*cout)
	op.ParamBytes = float64(k*k*cin*cout+cout) * float64(dt)
	op.InputBytes = float64(b*h*w*cin) * float64(dt)
	op.OutputBytes = float64(b*oh*ow*cout) * float64(dt)
	return op
}

// DepthwiseOp builds a depthwise k×k convolution over h×w×c with stride s.
// Depthwise convolutions cannot feed the MXU's systolic contraction (one
// multiply per output element per tap, no channel reduction), so they
// execute on the VPU — the root cause of MBConv's low operational
// intensity in Figure 4.
func DepthwiseOp(op *Op, name string, b, h, w, c, k, s, dt int) *Op {
	oh, ow := outDim(h, s), outDim(w, s)
	op.Name, op.Kind, op.Unit = name, DepthwiseConv, VPU
	op.FLOPs = 2 * float64(b*oh*ow) * float64(k*k*c)
	op.ParamBytes = float64(k*k*c+c) * float64(dt)
	op.InputBytes = float64(b*h*w*c) * float64(dt)
	op.OutputBytes = float64(b*oh*ow*c) * float64(dt)
	return op
}

// DenseOp builds a fully connected in→out layer at batch b on the MXU. A
// rank-r factorized layer is two of them, in→r and r→out.
func DenseOp(op *Op, name string, b, in, out, dt int) *Op {
	op.Name, op.Kind, op.Unit = name, Dense, MXU
	op.FLOPs = 2 * float64(b) * float64(in*out)
	op.ParamBytes = float64(in*out+out) * float64(dt)
	op.InputBytes = float64(b*in) * float64(dt)
	op.OutputBytes = float64(b*out) * float64(dt)
	return op
}

// BatchMatMulOp builds a batched (groups× m×k·k×n) matrix multiply on the
// MXU, e.g. attention score or context products.
func BatchMatMulOp(op *Op, name string, groups, m, k, n, dt int) *Op {
	op.Name, op.Kind, op.Unit = name, BatchMatMul, MXU
	op.FLOPs = 2 * float64(groups) * float64(m) * float64(k) * float64(n)
	op.InputBytes = float64(groups) * float64(m*k+k*n) * float64(dt)
	op.OutputBytes = float64(groups) * float64(m*n) * float64(dt)
	return op
}

// pushAttention appends a multi-head self-attention block named by n:
// QKV projections, score matmul, softmax, context matmul, and output
// projection.
func (g *Graph) pushAttention(n *TransformerNames, b, seq, hidden, heads, dt int) {
	dh := hidden / heads
	if dh == 0 {
		dh = 1
	}
	DenseOp(g.Push(), n.qkv, b*seq, hidden, 3*hidden, dt)
	BatchMatMulOp(g.Push(), n.scores, b*heads, seq, dh, seq, dt)
	SoftmaxOp(g.Push(), n.softmax, b*heads*seq, seq, dt)
	BatchMatMulOp(g.Push(), n.context, b*heads, seq, seq, dh, dt)
	DenseOp(g.Push(), n.proj, b*seq, hidden, hidden, dt)
}

// SoftmaxOp builds a rows×cols row-softmax on the VPU (~5 FLOPs/element:
// max, sub, exp, sum, div).
func SoftmaxOp(op *Op, name string, rows, cols, dt int) *Op {
	elems := float64(rows * cols)
	op.Name, op.Kind, op.Unit = name, Softmax, VPU
	op.FLOPs = 5 * elems
	op.InputBytes = elems * float64(dt)
	op.OutputBytes = elems * float64(dt)
	return op
}

// ElementwiseOp builds a fusable elementwise op (activation, residual add,
// scale) over elems elements with flopsPerElem operations each.
func ElementwiseOp(op *Op, name string, elems, flopsPerElem, dt int) *Op {
	op.Name, op.Kind, op.Unit, op.Fusable = name, Elementwise, VPU, true
	op.FLOPs = float64(elems) * float64(flopsPerElem)
	op.InputBytes = float64(elems) * float64(dt)
	op.OutputBytes = float64(elems) * float64(dt)
	return op
}

// NormOp builds a batch/layer normalization over elems elements with c
// channels of scale/offset parameters (~4 FLOPs/element). Norms fuse into
// their producer on TPU compilers.
func NormOp(op *Op, name string, elems, c, dt int) *Op {
	op.Name, op.Kind, op.Unit, op.Fusable = name, Norm, VPU, true
	op.FLOPs = 4 * float64(elems)
	op.ParamBytes = 2 * float64(c) * float64(dt)
	op.InputBytes = float64(elems) * float64(dt)
	op.OutputBytes = float64(elems) * float64(dt)
	return op
}

// PoolOp builds a pooling reduction from inElems to outElems.
func PoolOp(op *Op, name string, inElems, outElems, dt int) *Op {
	op.Name, op.Kind, op.Unit = name, Pool, VPU
	op.FLOPs = float64(inElems)
	op.InputBytes = float64(inElems) * float64(dt)
	op.OutputBytes = float64(outElems) * float64(dt)
	return op
}

// SEOp builds a squeeze-and-excitation block on an h×w×c tensor with
// reduction ratio ratio∈(0,1]: global pool, two tiny dense layers, and a
// channel-wise rescale.
func SEOp(op *Op, name string, b, h, w, c int, ratio float64, dt int) *Op {
	mid := int(float64(c) * ratio)
	if mid < 1 {
		mid = 1
	}
	elems := float64(b * h * w * c)
	denseFLOPs := 2 * float64(b) * float64(c*mid) * 2 // squeeze + excite matmuls
	op.Name, op.Kind, op.Unit = name, SE, VPU
	op.FLOPs = elems /*pool*/ + denseFLOPs + elems /*rescale*/
	op.ParamBytes = float64(2*c*mid) * float64(dt)
	op.InputBytes = elems * float64(dt)
	op.OutputBytes = elems * float64(dt)
	return op
}

// SpaceToDepthOp builds the tensor-reshaping op from the CNN search space:
// pure data movement of elems elements.
func SpaceToDepthOp(op *Op, name string, elems, dt int) *Op {
	op.Name, op.Kind, op.Unit = name, SpaceToDepth, MemoryUnit
	op.InputBytes = float64(elems) * float64(dt)
	op.OutputBytes = float64(elems) * float64(dt)
	return op
}

// ConcatOp builds a feature concatenation writing elems elements.
func ConcatOp(op *Op, name string, elems, dt int) *Op {
	op.Name, op.Kind, op.Unit = name, Concat, MemoryUnit
	op.InputBytes = float64(elems) * float64(dt)
	op.OutputBytes = float64(elems) * float64(dt)
	return op
}

// EmbeddingOp builds a distributed sparse embedding lookup: b bags of
// bagSize ids gathered from a vocab×width table and mean-pooled. Gather
// traffic dominates; the table itself contributes capacity, not per-step
// streaming, so ParamBytes stays zero and capacity is tracked by the
// caller via Graph.Params.
func EmbeddingOp(op *Op, name string, b, bagSize, width, vocab, dt int) *Op {
	op.Name, op.Kind, op.Unit = name, EmbeddingLookup, MemoryUnit
	op.FLOPs = float64(b * bagSize * width) // pooling adds
	op.InputBytes = float64(b*bagSize*width) * float64(dt)
	op.OutputBytes = float64(b*width) * float64(dt)
	return op
}

// AllToAllOp builds the embedding-exchange collective: each chip sends and
// receives bytes of pooled embedding activations per step.
func AllToAllOp(op *Op, name string, bytes float64) *Op {
	op.Name, op.Kind, op.Unit, op.NetworkBytes = name, AllToAll, NetworkUnit, bytes
	return op
}

// AllReduceOp builds the data-parallel gradient synchronization: a ring
// all-reduce moves ~2× the parameter bytes per chip.
func AllReduceOp(op *Op, name string, paramBytes float64) *Op {
	op.Name, op.Kind, op.Unit, op.NetworkBytes = name, AllReduce, NetworkUnit, 2*paramBytes
	return op
}

func outDim(in, stride int) int {
	if stride <= 1 {
		return in
	}
	out := (in + stride - 1) / stride
	if out < 1 {
		out = 1
	}
	return out
}
