// Package arch defines the architecture intermediate representation: a
// typed operator graph with per-op compute (FLOPs), memory (parameter and
// activation bytes), and network traffic accounting, tagged with the
// hardware execution unit each op runs on.
//
// It plays the role of the TensorFlow/HLO graph in the paper's in-house
// performance simulator (Section 6.2.3): internal/models builds Graphs for
// the model zoo, internal/space decodes search-space assignments into
// Graphs, and internal/hwsim walks a Graph to estimate latency, power and
// energy on a chip config.
package arch

import "fmt"

// Unit identifies the hardware subsystem an op primarily executes on.
type Unit int

const (
	// MXU is the matrix/tensor unit (TPU MXU, GPU tensor core).
	MXU Unit = iota
	// VPU is the vector processing unit (elementwise work, softmax, norms).
	VPU
	// MemoryUnit marks ops dominated by memory traffic with negligible
	// compute, such as embedding gathers and tensor reshapes.
	MemoryUnit
	// NetworkUnit marks collective-communication ops (all-to-all,
	// all-reduce) bound by interconnect bandwidth.
	NetworkUnit
)

// String names the unit.
func (u Unit) String() string {
	switch u {
	case MXU:
		return "mxu"
	case VPU:
		return "vpu"
	case MemoryUnit:
		return "memory"
	case NetworkUnit:
		return "network"
	default:
		return fmt.Sprintf("Unit(%d)", int(u))
	}
}

// Kind identifies the operator type.
type Kind int

const (
	// Conv2D is a standard 2-D convolution.
	Conv2D Kind = iota
	// DepthwiseConv is a depthwise (per-channel) convolution.
	DepthwiseConv
	// Dense is a fully connected layer / matmul.
	Dense
	// BatchMatMul is a batched matrix multiply (attention score/context).
	BatchMatMul
	// EmbeddingLookup is a sparse embedding gather (+ pooling).
	EmbeddingLookup
	// Elementwise covers activations, residual adds, scaling; fusable.
	Elementwise
	// Softmax is a row softmax (attention probabilities).
	Softmax
	// Norm covers batch/layer normalization.
	Norm
	// Pool covers average/max pooling and sequence pooling.
	Pool
	// SpaceToDepth is the tensor reshaping op from the CNN search space.
	SpaceToDepth
	// Concat concatenates feature tensors (DLRM feature interaction).
	Concat
	// AllToAll is the embedding-exchange collective in distributed DLRM.
	AllToAll
	// AllReduce is the gradient-synchronization collective.
	AllReduce
	// SE is a squeeze-and-excitation block's pooled gating computation.
	SE
)

// String names the kind.
func (k Kind) String() string {
	names := [...]string{"conv2d", "depthwise_conv", "dense", "batch_matmul",
		"embedding_lookup", "elementwise", "softmax", "norm", "pool",
		"space_to_depth", "concat", "all_to_all", "all_reduce", "se"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Op is one operator with its resource accounting. All byte quantities are
// for one execution at the graph's batch size.
type Op struct {
	Name string
	Kind Kind
	Unit Unit

	// FLOPs is total floating-point operations (multiply-adds count as 2).
	FLOPs float64
	// ParamBytes is the weight bytes the op reads.
	ParamBytes float64
	// InputBytes / OutputBytes are activation bytes read and written.
	InputBytes  float64
	OutputBytes float64
	// NetworkBytes is per-chip interconnect traffic for collectives.
	NetworkBytes float64

	// Fusable marks ops the compiler can fuse into their producer
	// (elementwise chains), eliminating their activation round-trips.
	Fusable bool
	// Weight multiplies the op's cost when it represents N identical
	// layers (repeat count); 0 means 1.
	Weight float64
}

// Repeat returns the op's repeat count (at least 1).
func (o *Op) Repeat() float64 {
	if o.Weight <= 0 {
		return 1
	}
	return o.Weight
}

// TotalFLOPs is FLOPs times the repeat count.
func (o *Op) TotalFLOPs() float64 { return o.FLOPs * o.Repeat() }

// Graph is a sequence of ops in execution order. The simulator treats the
// list as the critical path (the paper's simulator "walks through a
// TensorFlow/HLO graph ... and finally sums the total run-time on the
// critical path"); branch-level parallelism is expressed by the builders
// via the Parallel combinator before the graph is flattened.
//
// Ops are held by value in one slice: a builder takes each op's slot
// from Push and fills it in place, so an op is written once and never
// copied. Loop over Ops by index; ranging over values copies every op.
type Graph struct {
	Name  string
	Ops   []Op
	Batch int
	// DTypeBytes is bytes per element (2 for bf16, 4 for f32).
	DTypeBytes int
	// Params is the total trainable parameter count.
	Params float64
}

// Push appends a zero op and returns its slot in Ops for a constructor
// (ConvOp, DenseOp, ...) to fill. The pointer is good until the next
// Push, which may move Ops when it grows.
func (g *Graph) Push() *Op {
	g.Ops = append(g.Ops, Op{})
	return &g.Ops[len(g.Ops)-1]
}

// countParams counts the weights of the ops from index from on into
// Params, in op order: ParamBytes over the element size dt, once per
// repeated layer.
func (g *Graph) countParams(from, dt int) {
	for i := from; i < len(g.Ops); i++ {
		g.Params += g.Ops[i].ParamBytes / float64(dt) * g.Ops[i].Repeat()
	}
}

// Reset empties the graph and renames it for a build of n ops, keeping
// its op storage when it holds n and otherwise sizing it to n: pushing n
// ops then allocates nothing more. A builder that does not count its
// ops passes 0 and lets Push grow the storage.
func (g *Graph) Reset(name string, batch, dtypeBytes, n int) {
	g.Name, g.Batch, g.DTypeBytes, g.Params = name, batch, dtypeBytes, 0
	g.Ops = g.Ops[:0]
	if cap(g.Ops) < n {
		g.Ops = make([]Op, 0, n)
	}
}

// TotalFLOPs sums FLOPs over all ops with repeats.
func (g *Graph) TotalFLOPs() float64 {
	var s float64
	for i := range g.Ops {
		s += g.Ops[i].TotalFLOPs()
	}
	return s
}

// TotalParamBytes sums unique parameter bytes (repeat-weighted: repeated
// layers have independent weights).
func (g *Graph) TotalParamBytes() float64 {
	var s float64
	for i := range g.Ops {
		s += g.Ops[i].ParamBytes * g.Ops[i].Repeat()
	}
	return s
}

// UnitFLOPs sums FLOPs on a given unit.
func (g *Graph) UnitFLOPs(u Unit) float64 {
	var s float64
	for i := range g.Ops {
		if g.Ops[i].Unit == u {
			s += g.Ops[i].TotalFLOPs()
		}
	}
	return s
}

// NetworkBytes sums collective traffic.
func (g *Graph) NetworkBytes() float64 {
	var s float64
	for i := range g.Ops {
		s += g.Ops[i].NetworkBytes * g.Ops[i].Repeat()
	}
	return s
}
