package reward

import (
	"math"
	"testing"
	"testing/quick"
)

func relu1(t *testing.T, target, beta float64) *Function {
	t.Helper()
	f, err := New(ReLU, Objective{Name: "lat", Target: target, Beta: beta})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestReLURewardNoPenaltyBelowTarget(t *testing.T) {
	f := relu1(t, 1.0, -2.0)
	// At, below, and far below target: quality passes through unchanged.
	for _, perf := range []float64{1.0, 0.9, 0.1} {
		if got := f.Eval(0.8, []float64{perf}); got != 0.8 {
			t.Errorf("Eval(0.8, %v) = %v, want 0.8 (no penalty below target)", perf, got)
		}
	}
}

func TestReLURewardLinearPenaltyAboveTarget(t *testing.T) {
	f := relu1(t, 1.0, -2.0)
	got := f.Eval(0.8, []float64{1.5}) // 50% over → penalty 2·0.5
	want := 0.8 - 2*0.5
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Eval = %v, want %v", got, want)
	}
}

func TestAbsoluteRewardPenalizesBothSides(t *testing.T) {
	f, err := New(Absolute, Objective{Name: "lat", Target: 1.0, Beta: -2.0})
	if err != nil {
		t.Fatal(err)
	}
	over := f.Eval(0.8, []float64{1.25})
	under := f.Eval(0.8, []float64{0.75})
	if math.Abs(over-under) > 1e-12 {
		t.Fatalf("absolute reward must be symmetric: %v vs %v", over, under)
	}
	if over >= 0.8 {
		t.Fatal("absolute reward must penalize deviation")
	}
}

func TestReLUBeatsAbsoluteForOverachievers(t *testing.T) {
	// The design point of Section 6.1: an overachieving candidate (same
	// quality, better performance) keeps its full reward under ReLU but is
	// penalized under the absolute reward.
	r := MustNew(ReLU, Objective{Name: "lat", Target: 1.0, Beta: -2.0})
	a := MustNew(Absolute, Objective{Name: "lat", Target: 1.0, Beta: -2.0})
	overachiever := []float64{0.7}
	if r.Eval(0.8, overachiever) <= a.Eval(0.8, overachiever) {
		t.Fatal("ReLU must favor overachieving candidates over absolute")
	}
}

func TestSingleObjectiveRewardsAgreeAtOrAboveTarget(t *testing.T) {
	// "This design difference does not result in different optimization
	// results when using only one performance objective" — at or above
	// target the two coincide exactly.
	r := MustNew(ReLU, Objective{Name: "lat", Target: 2.0, Beta: -1.5})
	a := MustNew(Absolute, Objective{Name: "lat", Target: 2.0, Beta: -1.5})
	for _, perf := range []float64{2.0, 2.5, 4.0} {
		if math.Abs(r.Eval(1, []float64{perf})-a.Eval(1, []float64{perf})) > 1e-12 {
			t.Fatalf("rewards must agree above target at perf=%v", perf)
		}
	}
}

func TestMultiObjectiveAccumulates(t *testing.T) {
	f := MustNew(ReLU,
		Objective{Name: "lat", Target: 1.0, Beta: -1.0},
		Objective{Name: "mem", Target: 10.0, Beta: -0.5},
	)
	got := f.Eval(1.0, []float64{1.2, 15})
	want := 1.0 - 1.0*0.2 - 0.5*0.5
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Eval = %v, want %v", got, want)
	}
}

func TestBetaSignNormalized(t *testing.T) {
	pos := MustNew(ReLU, Objective{Name: "lat", Target: 1.0, Beta: 2.0})
	neg := MustNew(ReLU, Objective{Name: "lat", Target: 1.0, Beta: -2.0})
	if pos.Eval(0, []float64{1.5}) != neg.Eval(0, []float64{1.5}) {
		t.Fatal("beta sign convention must be normalized")
	}
	if pos.Eval(0, []float64{1.5}) >= 0 {
		t.Fatal("over-target penalty must be negative")
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(ReLU, Objective{Name: "x", Target: 0, Beta: -1}); err == nil {
		t.Fatal("zero target must be rejected")
	}
	if _, err := New(ReLU, Objective{Name: "x", Target: math.NaN(), Beta: -1}); err == nil {
		t.Fatal("NaN target must be rejected")
	}
	if _, err := New(ReLU, Objective{Name: "x", Target: 1, Beta: 0}); err == nil {
		t.Fatal("zero beta must be rejected")
	}
}

func TestMeetsTargets(t *testing.T) {
	f := MustNew(ReLU,
		Objective{Name: "lat", Target: 1.0, Beta: -1},
		Objective{Name: "mem", Target: 5.0, Beta: -1},
	)
	if !f.MeetsTargets([]float64{1.0, 5.0}) {
		t.Fatal("exactly-at-target must pass")
	}
	if !f.MeetsTargets([]float64{0.5, 4.9}) {
		t.Fatal("below-target must pass")
	}
	if f.MeetsTargets([]float64{1.01, 5.0}) {
		t.Fatal("over-target must fail")
	}
}

func TestRewardScaleInvarianceProperty(t *testing.T) {
	// Normalizing by the target makes the reward invariant under joint
	// rescaling of target and measurement.
	f := func(scaleSeed uint8, perfSeed uint8) bool {
		scale := 0.1 + float64(scaleSeed)/16
		perf := 0.1 + float64(perfSeed)/32
		base := MustNew(ReLU, Objective{Name: "lat", Target: 1.0, Beta: -1.3})
		scaled := MustNew(ReLU, Objective{Name: "lat", Target: scale, Beta: -1.3})
		return math.Abs(base.Eval(0.5, []float64{perf})-scaled.Eval(0.5, []float64{perf * scale})) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRewardMonotoneInPerformanceProperty(t *testing.T) {
	// Worse performance can never raise the reward, for either kind above
	// target.
	f := MustNew(ReLU, Objective{Name: "lat", Target: 1.0, Beta: -2})
	prop := func(aSeed, bSeed uint8) bool {
		a := 1.0 + float64(aSeed)/64
		b := a + float64(bSeed)/64
		return f.Eval(1, []float64{b}) <= f.Eval(1, []float64{a})+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPenaltyIsEvalMinusQuality(t *testing.T) {
	f := MustNew(ReLU, Objective{Name: "lat", Target: 1.0, Beta: -2})
	perf := []float64{1.4}
	// The reward is quality plus a penalty that does not depend on it.
	if penalty := f.Eval(0, perf); penalty >= 0 || math.Abs(penalty-(f.Eval(0.9, perf)-0.9)) > 1e-12 {
		t.Fatalf("penalty %v must be negative and equal Eval minus quality", penalty)
	}
}
