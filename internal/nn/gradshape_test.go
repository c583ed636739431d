package nn

import (
	"fmt"
	"strings"
	"testing"

	"h2onas/internal/tensor"
)

// gradShapeCase is one layer whose Forward has run on a batch, producing
// a rows×cols output.
type gradShapeCase struct {
	name       string // what the panic must name
	layer      layer
	params     []*Param
	rows, cols int
}

func gradShapeCases() []gradShapeCase {
	rng := tensor.NewRNG(35)
	var cases []gradShapeCase

	dense := NewDense(5, 3, rng)
	dense.Forward(tensor.RandN(4, 5, 1, rng))
	cases = append(cases, gradShapeCase{dense.W.Name, dense, dense.Params(), 4, 3})

	masked := NewMaskedDense(6, 5, rng)
	masked.SetActive(4, 3)
	masked.Forward(tensor.RandN(4, 4, 1, rng))
	cases = append(cases, gradShapeCase{masked.W.Name, masked, masked.Params(), 4, 3})

	low := NewLowRankDense(6, 5, 3, rng)
	low.SetActive(4, 3, 2)
	low.Forward(tensor.RandN(4, 4, 1, rng))
	cases = append(cases, gradShapeCase{low.V.Name, low, low.Params(), 4, 3})

	norm := NewMaskedLayerNorm(6)
	norm.SetActive(3)
	norm.Forward(tensor.RandN(4, 3, 1, rng))
	cases = append(cases, gradShapeCase{"MaskedLayerNorm.Backward", norm, norm.Params(), 4, 3})

	attn := NewMaskedAttention(8, rng)
	attn.SetActive(4, 2)
	attn.Forward(tensor.RandN(6, 4, 1, rng))
	cases = append(cases, gradShapeCase{"MaskedAttention.Backward", attn, attn.Params(), 6, 4})
	return cases
}

// TestBackwardRejectsMisshapenGrad checks that every affine, norm and
// attention Backward panics, naming itself, on a gradient whose shape is
// not its last output's — before it accumulates anything. Before the
// check, the affine stage dropped extra rows from dW/dX while Dense's
// bias sum added them, MaskedLayerNorm returned a partial dγ/dβ for
// fewer rows, and MaskedAttention indexed past the batch mid-loop.
func TestBackwardRejectsMisshapenGrad(t *testing.T) {
	for i, c := range gradShapeCases() {
		for _, shape := range [][2]int{{c.rows + 1, c.cols}, {c.rows - 1, c.cols}, {c.rows, c.cols + 1}, {c.rows, c.cols - 1}} {
			// A fresh layer per shape: a panicking Backward leaves the
			// layer mid-pass.
			c := gradShapeCases()[i]
			t.Run(fmt.Sprintf("%s/%dx%d", c.name, shape[0], shape[1]), func(t *testing.T) {
				func() {
					defer func() {
						msg, _ := recover().(string)
						if !strings.Contains(msg, c.name) || !strings.Contains(msg, "grad shape") {
							t.Errorf("Backward with a %dx%d grad after a %dx%d output: recovered %q, want a grad-shape panic naming %s", shape[0], shape[1], c.rows, c.cols, msg, c.name)
						}
					}()
					c.layer.Backward(ones(shape[0], shape[1]))
				}()
				for _, p := range c.params {
					for _, g := range p.Grad.Data {
						if g != 0 {
							t.Fatalf("%s took gradient before the shape check", p.Name)
						}
					}
				}
			})
		}
		// The right shape still runs.
		c := gradShapeCases()[i]
		if dx := c.layer.Backward(ones(c.rows, c.cols)); dx.Rows != c.rows {
			t.Fatalf("%s: dX has %d rows, want %d", c.name, dx.Rows, c.rows)
		}
	}
}

func ones(rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = 1
	}
	return m
}
