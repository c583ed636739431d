// Package tensortest holds the matrix helpers that tests across the
// repository share: a tolerance comparison, a largest-magnitude probe and
// a deep copy.
package tensortest

import (
	"math"

	"h2onas/internal/tensor"
)

// Equal reports whether a and b have identical shape and elements within tol.
func Equal(a, b *tensor.Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbs returns the largest absolute element value (0 for empty matrices).
func MaxAbs(a *tensor.Matrix) float64 {
	var m float64
	for _, v := range a.Data {
		if av := math.Abs(v); av > m {
			m = av
		}
	}
	return m
}

// Clone returns a deep copy of m.
func Clone(m *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}
