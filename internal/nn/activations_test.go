package nn

import (
	"math"
	"strings"
	"testing"

	"h2onas/internal/tensor"
)

// reluSpecials are the IEEE-754 corner values the ReLU pin laces into
// inputs and gradients: signed zeros, infinities, NaNs of both signs (and
// the NaN whose bits are next above +Inf's, the edge of the mask test),
// and subnormals at both ends of the range.
var reluSpecials = []float64{
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1),
	math.NaN(), math.Copysign(math.NaN(), -1), math.Float64frombits(0x7FF0000000000001),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
}

// lacedMatrix returns a rows×cols matrix of normal deviates with every
// third element replaced by a corner value.
func lacedMatrix(rows, cols int, rng *tensor.RNG) *tensor.Matrix {
	m := tensor.RandN(rows, cols, 1, rng)
	for i := range m.Data {
		if i%3 == 0 {
			m.Data[i] = reluSpecials[rng.Intn(len(reluSpecials))]
		}
	}
	return m
}

// TestReLULayerMatchesBranchSelect pins ActivationLayer's ReLU forward and
// backward to the `if v > 0` select loops they replaced, bit for bit, on
// inputs and gradients laced with ±0, ±Inf, ±NaN and subnormals: a live
// position (input > 0) copies the value's bits, a dead one (input ≤ 0 or
// NaN) is +0, never −0. The arena is reused across passes, so a position
// the layer failed to write would show the previous pass's data.
func TestReLULayerMatchesBranchSelect(t *testing.T) {
	rng := tensor.NewRNG(17)
	l := NewActivationLayer(ReLU)
	l.Arena = tensor.NewArena()
	for _, shape := range [][2]int{{64, 64}, {64, 32}, {3, 7}, {1, 1}} {
		for pass := 0; pass < 2; pass++ {
			l.Arena.Release()
			x := lacedMatrix(shape[0], shape[1], rng)
			g := lacedMatrix(shape[0], shape[1], rng)
			y := l.Forward(x)
			dx := l.Backward(g)
			for i, v := range x.Data {
				wantY, wantDX := 0.0, 0.0
				if v > 0 {
					wantY, wantDX = v, g.Data[i]
				}
				if math.Float64bits(y.Data[i]) != math.Float64bits(wantY) {
					t.Fatalf("%v forward[%d] of %v = %v (%016x), want %v", shape, i, v, y.Data[i], math.Float64bits(y.Data[i]), wantY)
				}
				if math.Float64bits(dx.Data[i]) != math.Float64bits(wantDX) {
					t.Fatalf("%v backward[%d] at input %v, grad %v = %v (%016x), want %v", shape, i, v, g.Data[i], dx.Data[i], math.Float64bits(dx.Data[i]), wantDX)
				}
			}
		}
	}
}

// TestActivationBackwardRejectsMismatchedGrad checks that Backward panics,
// naming itself, on a gradient whose shape is not the cached input's: a
// wider one would leave part of the output unwritten, a narrower one
// would silently read a prefix of the input.
func TestActivationBackwardRejectsMismatchedGrad(t *testing.T) {
	for _, act := range []Activation{ReLU, Tanh} {
		for _, shape := range [][2]int{{4, 6}, {4, 4}, {5, 5}} {
			l := NewActivationLayer(act)
			l.Forward(tensor.New(4, 5))
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "ActivationLayer.Backward") {
						t.Errorf("%s: Backward with a %dx%d grad on a 4x5 input: recovered %q, want a shape panic naming ActivationLayer.Backward", act, shape[0], shape[1], msg)
					}
				}()
				l.Backward(tensor.New(shape[0], shape[1]))
			}()
		}
	}
}
