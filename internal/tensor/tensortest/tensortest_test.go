package tensortest

import (
	"testing"

	"h2onas/internal/tensor"
)

func TestCloneIsDeep(t *testing.T) {
	m := &tensor.Matrix{Rows: 1, Cols: 2, Data: []float64{1, 2}}
	c := Clone(m)
	c.Data[0] = 99
	if m.Data[0] != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestMaxAbs(t *testing.T) {
	a := &tensor.Matrix{Rows: 2, Cols: 3, Data: []float64{1, -2, 3, 4, 5, -6}}
	if got := MaxAbs(a); got != 6 {
		t.Errorf("MaxAbs = %v, want 6", got)
	}
}
