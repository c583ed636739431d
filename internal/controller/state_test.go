package controller

import (
	"bytes"
	"slices"
	"testing"

	"h2onas/internal/space"
	"h2onas/internal/tensor"
)

func TestControllerStateRestoreRoundTrip(t *testing.T) {
	s := twoDecisionSpace()
	rng := tensor.NewRNG(9)
	c := New(s, DefaultConfig())
	for i := 0; i < 10; i++ {
		a := c.Sample(rng, false)
		c.Update([]space.Assignment{a}, []float64{rng.Float64()})
	}
	if !c.baselineSet || c.steps != 10 {
		t.Fatalf("after 10 updates: baseline set %v, steps %d", c.baselineSet, c.steps)
	}
	fresh := New(s, DefaultConfig())
	if err := fresh.RestoreState(c.StateBytes()); err != nil {
		t.Fatal(err)
	}
	if fresh.baseline != c.baseline || fresh.baselineSet != c.baselineSet || fresh.steps != c.steps {
		t.Fatalf("restored baseline/set/steps %v/%v/%d, want %v/%v/%d",
			fresh.baseline, fresh.baselineSet, fresh.steps, c.baseline, c.baselineSet, c.steps)
	}
	if !bytes.Equal(fresh.StateBytes(), c.StateBytes()) || !slices.Equal(fresh.Best(), c.Best()) {
		t.Fatal("the restored controller re-serializes or chooses differently")
	}
	if err := New(space.NewSpace("one", space.NewDecision("a", 1, 2)), DefaultConfig()).RestoreState(c.StateBytes()); err == nil {
		t.Fatal("a blob of a two-decision space restored into a one-decision space")
	}
}
