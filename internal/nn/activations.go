// Package nn is the neural-network substrate: layers with hand-written
// backpropagation, activation functions, losses, and optimizers, built on
// internal/tensor.
//
// It exists because the paper's system needs to *train* networks in three
// places — the weight-sharing DLRM super-network during search, the
// MLP-based hardware performance model (Section 6.2), and baselines — and
// the reproduction may use the standard library only. The framework is a
// define-by-run stack of Layers: Forward caches whatever Backward needs,
// Backward accumulates parameter gradients and returns the input gradient.
package nn

import (
	"fmt"
	"math"
	"math/bits"

	"h2onas/internal/tensor"
)

// Activation identifies one of the searchable activation functions from the
// paper's search spaces (Table 5).
type Activation int

const (
	// Identity is the no-op activation.
	Identity Activation = iota
	// ReLU is max(0, x).
	ReLU
	// Swish is x·sigmoid(x) (also called SiLU).
	Swish
	// GeLU is the Gaussian error linear unit (tanh approximation).
	GeLU
	// SquaredReLU is max(0, x)², the Primer activation CoAtNet-H adopts in
	// its transformer section (Table 3).
	SquaredReLU
	// Sigmoid is 1/(1+e^-x).
	Sigmoid
	// Tanh is the hyperbolic tangent.
	Tanh
)

// String returns the conventional lower-case name of the activation.
func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case ReLU:
		return "relu"
	case Swish:
		return "swish"
	case GeLU:
		return "gelu"
	case SquaredReLU:
		return "squared_relu"
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// Apply computes the activation at x.
func (a Activation) Apply(x float64) float64 {
	switch a {
	case Identity:
		return x
	case ReLU:
		if x > 0 {
			return x
		}
		return 0
	case Swish:
		return x * sigmoid(x)
	case GeLU:
		return 0.5 * x * (1 + math.Tanh(math.Sqrt(2/math.Pi)*(x+0.044715*x*x*x)))
	case SquaredReLU:
		if x > 0 {
			return x * x
		}
		return 0
	case Sigmoid:
		return sigmoid(x)
	case Tanh:
		return math.Tanh(x)
	default:
		panic("nn: unknown activation")
	}
}

// Derivative computes dA/dx at x.
func (a Activation) Derivative(x float64) float64 {
	switch a {
	case Identity:
		return 1
	case ReLU:
		if x > 0 {
			return 1
		}
		return 0
	case Swish:
		s := sigmoid(x)
		return s + x*s*(1-s)
	case GeLU:
		// Derivative of the tanh approximation.
		c := math.Sqrt(2 / math.Pi)
		inner := c * (x + 0.044715*x*x*x)
		t := math.Tanh(inner)
		dinner := c * (1 + 3*0.044715*x*x)
		return 0.5*(1+t) + 0.5*x*(1-t*t)*dinner
	case SquaredReLU:
		if x > 0 {
			return 2 * x
		}
		return 0
	case Sigmoid:
		s := sigmoid(x)
		return s * (1 - s)
	case Tanh:
		t := math.Tanh(x)
		return 1 - t*t
	default:
		panic("nn: unknown activation")
	}
}

func sigmoid(x float64) float64 {
	// Numerically stable split form.
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// ActivationLayer applies an Activation elementwise.
type ActivationLayer struct {
	Act Activation

	// Arena, when set, owns the layer's outputs (valid until its next
	// Release); nil falls back to heap allocation.
	Arena *tensor.Arena

	input *tensor.Matrix // cached for Backward
}

// NewActivationLayer returns a layer applying act elementwise.
func NewActivationLayer(act Activation) *ActivationLayer {
	return &ActivationLayer{Act: act}
}

// Forward applies the activation elementwise, caching the input. ReLU and
// Identity — the activations on the search hot path — run as specialized
// loops instead of a per-element indirect call.
func (l *ActivationLayer) Forward(x *tensor.Matrix) *tensor.Matrix {
	l.input = x
	out := l.Arena.GetNoZero(x.Rows, x.Cols)
	switch l.Act {
	case Identity:
		copy(out.Data, x.Data)
	case ReLU:
		reluSelect(out.Data, x.Data, x.Data)
	default:
		for i, v := range x.Data {
			out.Data[i] = l.Act.Apply(v)
		}
	}
	return out
}

// Backward returns grad ⊙ act'(input).
func (l *ActivationLayer) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if l.input == nil {
		panic("nn: ActivationLayer.Backward before Forward")
	}
	checkSame("ActivationLayer.Backward", grad, l.input)
	out := l.Arena.GetNoZero(grad.Rows, grad.Cols)
	switch l.Act {
	case Identity:
		copy(out.Data, grad.Data)
	case ReLU:
		reluSelect(out.Data, grad.Data, l.input.Data)
	default:
		for i := range grad.Data {
			out.Data[i] = grad.Data[i] * l.Act.Derivative(l.input.Data[i])
		}
	}
	return out
}

// reluSelect sets out[i] = x[i] where in[i] > 0 and +0 elsewhere (±0 and
// NaN included), by bit mask instead of a branch: on ReLU outputs about
// half the elements go each way, so a branch mispredicts all the time.
// in[i] > 0 exactly when bits(in[i])−1, unsigned, is below the bits of
// +Inf, which the borrow of that subtraction reports.
func reluSelect(out, x, in []float64) {
	x, in = x[:len(out)], in[:len(out)] // bounds-check elimination hint
	for i := range out {
		_, borrow := bits.Sub64(math.Float64bits(in[i])-1, 0x7FF0000000000000, 0)
		out[i] = math.Float64frombits(math.Float64bits(x[i]) & -borrow)
	}
}

// Params returns nil: activations have no trainable parameters.
func (l *ActivationLayer) Params() []*Param { return nil }
