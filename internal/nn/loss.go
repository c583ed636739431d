package nn

import (
	"fmt"
	"math"

	"h2onas/internal/tensor"
)

// A loss computes a scalar training objective and the gradient of that
// objective with respect to the model output: Eval returns (mean loss over
// the batch, dLoss/dOutput) from a single call because every loss needs
// the forward quantities to compute the gradient anyway.

// BCEWithLogits is binary cross-entropy on raw logits (batch×1), the DLRM
// click-through objective. It folds the sigmoid into the loss for numerical
// stability: loss = max(z,0) − z·y + log(1+e^−|z|).
type BCEWithLogits struct{}

// Eval returns the loss and its gradient. Targets must be in {0,1} (soft labels in [0,1] are
// also accepted).
func (BCEWithLogits) Eval(output, target *tensor.Matrix) (float64, *tensor.Matrix) {
	grad := tensor.New(output.Rows, output.Cols)
	return BCEWithLogits{}.EvalInto(output, target, grad), grad
}

// EvalInto is Eval writing the gradient into grad (fully overwritten),
// so hot loops can reuse a pooled buffer instead of allocating one per
// step. grad must match output's shape.
func (BCEWithLogits) EvalInto(output, target, grad *tensor.Matrix) float64 {
	checkSame("BCEWithLogits", output, target)
	checkSame("BCEWithLogits grad", output, grad)
	n := float64(len(output.Data))
	var total float64
	for i, z := range output.Data {
		y := target.Data[i]
		total += math.Max(z, 0) - z*y + math.Log1p(math.Exp(-math.Abs(z)))
		grad.Data[i] = (sigmoid(z) - y) / n
	}
	return total / n
}

// QualityFromLoss maps a BCE loss to the one-shot quality signal
// Q = 1 − loss/ln 2: predicting the uninformative 0.5 scores 0 and a
// perfect predictor 1.
func QualityFromLoss(loss float64) float64 { return 1 - loss/math.Ln2 }

// MSE is mean squared error, used to train the performance model.
type MSE struct{}

// Eval returns loss = mean((out−target)²), grad = 2(out−target)/n.
func (MSE) Eval(output, target *tensor.Matrix) (float64, *tensor.Matrix) {
	checkSame("MSE", output, target)
	n := float64(len(output.Data))
	grad := tensor.New(output.Rows, output.Cols)
	var total float64
	for i, v := range output.Data {
		d := v - target.Data[i]
		total += d * d
		grad.Data[i] = 2 * d / n
	}
	return total / n, grad
}

// SoftmaxInto writes the numerically-stabilized softmax of logits into
// out, which must have the same length (it may alias logits).
func SoftmaxInto(logits, out []float64) {
	if len(out) != len(logits) {
		panic(fmt.Sprintf("nn: SoftmaxInto length mismatch %d vs %d", len(logits), len(out)))
	}
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - maxv)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}

// checkGrad panics unless a Backward's grad is rows×cols, the shape of the
// output its Forward produced: with more rows the extras would be dropped
// from some gradients and summed into others, with fewer the pass would
// return partial gradients or index past the batch.
func checkGrad(op string, grad *tensor.Matrix, rows, cols int) {
	if grad.Rows != rows || grad.Cols != cols {
		panic(fmt.Sprintf("nn: %s: grad shape %dx%d, want %dx%d", op, grad.Rows, grad.Cols, rows, cols))
	}
}

func checkSame(op string, a, b *tensor.Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
