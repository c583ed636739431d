package nn

import (
	"fmt"
	"math"

	"h2onas/internal/tensor"
)

// MaskedLayerNorm is layer normalization with fine-grained width sharing:
// gain/bias vectors are sized for the widest candidate and any prefix
// width can be active, normalizing over the active features only — the
// transformer super-network's counterpart of MaskedDense.
type MaskedLayerNorm struct {
	Gamma *Param // 1×maxDim
	Beta  *Param // 1×maxDim
	Eps   float64

	// Arena, when set, owns the output/normed intermediates (valid until
	// its next Release); nil falls back to heap allocation.
	Arena *tensor.Arena

	activeDim int
	input     *tensor.Matrix
	normed    *tensor.Matrix // cached normalized (pre-affine) values
	invStd    []float64      // cached 1/std per row (reused across calls)
	dnorm     []float64      // Backward scratch (reused across calls)
}

// NewMaskedLayerNorm returns a layer-norm slot for up to maxDim features,
// initialized to the identity transform (γ=1, β=0).
func NewMaskedLayerNorm(maxDim int) *MaskedLayerNorm {
	gamma := tensor.New(1, maxDim)
	gamma.Fill(1)
	return &MaskedLayerNorm{
		Gamma:     NewParam(fmt.Sprintf("ln_gamma_%d", maxDim), gamma),
		Beta:      NewParam(fmt.Sprintf("ln_beta_%d", maxDim), tensor.New(1, maxDim)),
		Eps:       1e-5,
		activeDim: maxDim,
	}
}

// SetActive selects the active feature width.
func (l *MaskedLayerNorm) SetActive(dim int) {
	if dim <= 0 || dim > l.Gamma.Value.Cols {
		panic(fmt.Sprintf("nn: MaskedLayerNorm.SetActive(%d) outside 1..%d", dim, l.Gamma.Value.Cols))
	}
	l.activeDim = dim
}

// Forward normalizes each row over its active features and applies the
// active slice of the affine parameters.
func (l *MaskedLayerNorm) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != l.activeDim {
		panic(fmt.Sprintf("nn: MaskedLayerNorm input width %d != active %d", x.Cols, l.activeDim))
	}
	l.input = x
	n := float64(l.activeDim)
	out := l.Arena.GetNoZero(x.Rows, x.Cols)
	l.normed = l.Arena.GetNoZero(x.Rows, x.Cols)
	if cap(l.invStd) < x.Rows {
		l.invStd = make([]float64, x.Rows)
	}
	l.invStd = l.invStd[:x.Rows]
	gamma := l.Gamma.Value.Data[:l.activeDim]
	beta := l.Beta.Value.Data[:l.activeDim]
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= n
		var varsum float64
		for _, v := range row {
			d := v - mean
			varsum += d * d
		}
		inv := 1 / math.Sqrt(varsum/n+l.Eps)
		l.invStd[i] = inv
		nrow := l.normed.Row(i)
		orow := out.Row(i)
		for j, v := range row {
			nv := (v - mean) * inv
			nrow[j] = nv
			orow[j] = nv*gamma[j] + beta[j]
		}
	}
	return out
}

// Backward accumulates dγ/dβ on the active slice and returns dX.
func (l *MaskedLayerNorm) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if l.input == nil {
		panic("nn: MaskedLayerNorm.Backward before Forward")
	}
	checkGrad("MaskedLayerNorm.Backward", grad, l.input.Rows, l.activeDim)
	n := float64(l.activeDim)
	gamma := l.Gamma.Value.Data[:l.activeDim]
	dGamma := l.Gamma.Grad.Data[:l.activeDim]
	dBeta := l.Beta.Grad.Data[:l.activeDim]
	dx := l.Arena.GetNoZero(grad.Rows, grad.Cols)
	if cap(l.dnorm) < l.activeDim {
		l.dnorm = make([]float64, l.activeDim)
	}
	dnorm := l.dnorm[:l.activeDim]
	for i := 0; i < grad.Rows; i++ {
		grow := grad.Row(i)
		nrow := l.normed.Row(i)
		// dNorm = grad ⊙ γ; then the standard layer-norm input gradient:
		// dx = invStd/n · (n·dNorm − Σ dNorm − normed·Σ(dNorm⊙normed)).
		var sumD, sumDN float64
		for j, g := range grow {
			dGamma[j] += g * nrow[j]
			dBeta[j] += g
			d := g * gamma[j]
			dnorm[j] = d
			sumD += d
			sumDN += d * nrow[j]
		}
		inv := l.invStd[i]
		dxrow := dx.Row(i)
		for j := range dnorm {
			dxrow[j] = inv / n * (n*dnorm[j] - sumD - nrow[j]*sumDN)
		}
	}
	l.Gamma.Dirty, l.Beta.Dirty = true, true
	return dx
}

// Params returns the affine parameters.
func (l *MaskedLayerNorm) Params() []*Param { return []*Param{l.Gamma, l.Beta} }
