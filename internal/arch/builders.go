package arch

import "fmt"

// The builders below compute each op's FLOPs/bytes from tensor shapes.
// Conventions: b is the per-chip batch size, dt is bytes per element,
// multiply-adds count as 2 FLOPs.

// ConvOp builds a standard 2-D convolution over an h×w×cin input with a
// k×k kernel, stride s, and cout output channels. It runs on the MXU.
func ConvOp(name string, b, h, w, cin, cout, k, s, dt int) Op {
	oh, ow := outDim(h, s), outDim(w, s)
	params := float64(k*k*cin*cout + cout)
	return Op{
		Name:        name,
		Kind:        Conv2D,
		Unit:        MXU,
		FLOPs:       2 * float64(b*oh*ow) * float64(k*k*cin*cout),
		ParamBytes:  params * float64(dt),
		InputBytes:  float64(b*h*w*cin) * float64(dt),
		OutputBytes: float64(b*oh*ow*cout) * float64(dt),
	}
}

// DepthwiseOp builds a depthwise k×k convolution over h×w×c with stride s.
// Depthwise convolutions cannot feed the MXU's systolic contraction (one
// multiply per output element per tap, no channel reduction), so they
// execute on the VPU — the root cause of MBConv's low operational
// intensity in Figure 4.
func DepthwiseOp(name string, b, h, w, c, k, s, dt int) Op {
	oh, ow := outDim(h, s), outDim(w, s)
	params := float64(k*k*c + c)
	return Op{
		Name:        name,
		Kind:        DepthwiseConv,
		Unit:        VPU,
		FLOPs:       2 * float64(b*oh*ow) * float64(k*k*c),
		ParamBytes:  params * float64(dt),
		InputBytes:  float64(b*h*w*c) * float64(dt),
		OutputBytes: float64(b*oh*ow*c) * float64(dt),
	}
}

// DenseOp builds a fully connected in→out layer at batch b on the MXU.
func DenseOp(name string, b, in, out, dt int) Op {
	params := float64(in*out + out)
	return Op{
		Name:        name,
		Kind:        Dense,
		Unit:        MXU,
		FLOPs:       2 * float64(b) * float64(in*out),
		ParamBytes:  params * float64(dt),
		InputBytes:  float64(b*in) * float64(dt),
		OutputBytes: float64(b*out) * float64(dt),
	}
}

// LowRankDenseOps builds the two matmuls of a rank-r factorized in→out
// dense layer, named u and v.
func LowRankDenseOps(u, v string, b, in, out, rank, dt int) (Op, Op) {
	return DenseOp(u, b, in, rank, dt), DenseOp(v, b, rank, out, dt)
}

// BatchMatMulOp builds a batched (groups× m×k·k×n) matrix multiply on the
// MXU, e.g. attention score or context products.
func BatchMatMulOp(name string, groups, m, k, n, dt int) Op {
	return Op{
		Name:        name,
		Kind:        BatchMatMul,
		Unit:        MXU,
		FLOPs:       2 * float64(groups) * float64(m) * float64(k) * float64(n),
		InputBytes:  float64(groups) * float64(m*k+k*n) * float64(dt),
		OutputBytes: float64(groups) * float64(m*n) * float64(dt),
	}
}

// attentionOps builds a multi-head self-attention block named by n: QKV
// projections, score matmul, softmax, context matmul, and output
// projection.
func attentionOps(n *TransformerNames, b, seq, hidden, heads, dt int) [5]Op {
	dh := hidden / heads
	if dh == 0 {
		dh = 1
	}
	return [5]Op{
		DenseOp(n.qkv, b*seq, hidden, 3*hidden, dt),
		BatchMatMulOp(n.scores, b*heads, seq, dh, seq, dt),
		SoftmaxOp(n.softmax, b*heads*seq, seq, dt),
		BatchMatMulOp(n.context, b*heads, seq, seq, dh, dt),
		DenseOp(n.proj, b*seq, hidden, hidden, dt),
	}
}

// SoftmaxOp builds a rows×cols row-softmax on the VPU (~5 FLOPs/element:
// max, sub, exp, sum, div).
func SoftmaxOp(name string, rows, cols, dt int) Op {
	elems := float64(rows * cols)
	return Op{
		Name:        name,
		Kind:        Softmax,
		Unit:        VPU,
		FLOPs:       5 * elems,
		InputBytes:  elems * float64(dt),
		OutputBytes: elems * float64(dt),
	}
}

// ElementwiseOp builds a fusable elementwise op (activation, residual add,
// scale) over elems elements with flopsPerElem operations each.
func ElementwiseOp(name string, elems, flopsPerElem, dt int) Op {
	return Op{
		Name:        name,
		Kind:        Elementwise,
		Unit:        VPU,
		FLOPs:       float64(elems) * float64(flopsPerElem),
		InputBytes:  float64(elems) * float64(dt),
		OutputBytes: float64(elems) * float64(dt),
		Fusable:     true,
	}
}

// NormOp builds a batch/layer normalization over elems elements with c
// channels of scale/offset parameters (~4 FLOPs/element). Norms fuse into
// their producer on TPU compilers.
func NormOp(name string, elems, c, dt int) Op {
	return Op{
		Name:        name,
		Kind:        Norm,
		Unit:        VPU,
		FLOPs:       4 * float64(elems),
		ParamBytes:  2 * float64(c) * float64(dt),
		InputBytes:  float64(elems) * float64(dt),
		OutputBytes: float64(elems) * float64(dt),
		Fusable:     true,
	}
}

// PoolOp builds a pooling reduction from inElems to outElems.
func PoolOp(name string, inElems, outElems, dt int) Op {
	return Op{
		Name:        name,
		Kind:        Pool,
		Unit:        VPU,
		FLOPs:       float64(inElems),
		InputBytes:  float64(inElems) * float64(dt),
		OutputBytes: float64(outElems) * float64(dt),
	}
}

// SEOp builds a squeeze-and-excitation block on an h×w×c tensor with
// reduction ratio ratio∈(0,1]: global pool, two tiny dense layers, and a
// channel-wise rescale.
func SEOp(name string, b, h, w, c int, ratio float64, dt int) Op {
	mid := int(float64(c) * ratio)
	if mid < 1 {
		mid = 1
	}
	elems := float64(b * h * w * c)
	denseFLOPs := 2 * float64(b) * float64(c*mid) * 2 // squeeze + excite matmuls
	return Op{
		Name:        name,
		Kind:        SE,
		Unit:        VPU,
		FLOPs:       elems /*pool*/ + denseFLOPs + elems, /*rescale*/
		ParamBytes:  float64(2*c*mid) * float64(dt),
		InputBytes:  elems * float64(dt),
		OutputBytes: elems * float64(dt),
	}
}

// SpaceToDepthOp builds the tensor-reshaping op from the CNN search space:
// pure data movement of elems elements.
func SpaceToDepthOp(name string, elems, dt int) Op {
	return Op{
		Name:        name,
		Kind:        SpaceToDepth,
		Unit:        MemoryUnit,
		InputBytes:  float64(elems) * float64(dt),
		OutputBytes: float64(elems) * float64(dt),
	}
}

// ConcatOp builds a feature concatenation writing elems elements.
func ConcatOp(name string, elems, dt int) Op {
	return Op{
		Name:        name,
		Kind:        Concat,
		Unit:        MemoryUnit,
		InputBytes:  float64(elems) * float64(dt),
		OutputBytes: float64(elems) * float64(dt),
	}
}

// EmbeddingOp builds a distributed sparse embedding lookup: b bags of
// bagSize ids gathered from a vocab×width table and mean-pooled. Gather
// traffic dominates; the table itself contributes capacity, not per-step
// streaming, so ParamBytes stays zero and capacity is tracked by the
// caller via Graph.Params.
func EmbeddingOp(name string, b, bagSize, width, vocab, dt int) Op {
	gather := float64(b*bagSize*width) * float64(dt)
	return Op{
		Name:        name,
		Kind:        EmbeddingLookup,
		Unit:        MemoryUnit,
		FLOPs:       float64(b * bagSize * width), // pooling adds
		InputBytes:  gather,
		OutputBytes: float64(b*width) * float64(dt),
	}
}

// AllToAllOp builds the embedding-exchange collective: each chip sends and
// receives bytes of pooled embedding activations per step.
func AllToAllOp(name string, bytes float64) Op {
	return Op{
		Name:         name,
		Kind:         AllToAll,
		Unit:         NetworkUnit,
		NetworkBytes: bytes,
	}
}

// AllReduceOp builds the data-parallel gradient synchronization: a ring
// all-reduce moves ~2× the parameter bytes per chip.
func AllReduceOp(name string, paramBytes float64) Op {
	return Op{
		Name:         name,
		Kind:         AllReduce,
		Unit:         NetworkUnit,
		NetworkBytes: 2 * paramBytes,
	}
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

// Validate checks internal consistency of a graph and returns a descriptive
// error for the first problem found.
func (g *Graph) Validate() error {
	if g.Batch <= 0 {
		return fmt.Errorf("arch: graph %q has non-positive batch %d", g.Name, g.Batch)
	}
	if g.DTypeBytes <= 0 {
		return fmt.Errorf("arch: graph %q has non-positive dtype bytes %d", g.Name, g.DTypeBytes)
	}
	for i, op := range g.Ops {
		if op.Name == "" {
			return fmt.Errorf("arch: graph %q op %d has empty name", g.Name, i)
		}
		if op.FLOPs < 0 || op.ParamBytes < 0 || op.InputBytes < 0 || op.OutputBytes < 0 || op.NetworkBytes < 0 {
			return fmt.Errorf("arch: graph %q op %q has negative accounting", g.Name, op.Name)
		}
		if op.Unit == NetworkUnit && op.NetworkBytes == 0 {
			return fmt.Errorf("arch: graph %q network op %q moves no bytes", g.Name, op.Name)
		}
	}
	return nil
}
