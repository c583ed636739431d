package controller

import (
	"testing"

	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

func TestControllerStateRestoreRoundTrip(t *testing.T) {
	s := twoDecisionSpace()
	rng := tensor.NewRNG(9)
	c := New(s, DefaultConfig())
	for i := 0; i < 10; i++ {
		a := c.Policy.Sample(rng)
		c.Update([]space.Assignment{a}, []float64{rng.Float64()})
	}
	st := c.State()
	if !st.BaselineSet || st.Steps != 10 {
		t.Fatalf("state after 10 updates = %+v", st)
	}
	fresh := New(s, DefaultConfig())
	fresh.Restore(st)
	if fresh.Baseline() != c.Baseline() || fresh.Steps() != c.Steps() {
		t.Fatalf("restored baseline/steps %v/%d, want %v/%d",
			fresh.Baseline(), fresh.Steps(), c.Baseline(), c.Steps())
	}
}
