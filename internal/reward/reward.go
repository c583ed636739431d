// Package reward implements H₂O-NAS's multi-objective reward functions
// (Section 6.1): the single-sided ReLU reward of Equation 1 and, as the
// baseline it is evaluated against, TuNAS's absolute-value reward of
// Equation 2. Both combine a quality objective with any number of
// performance objectives (latency, throughput-derived step time, model
// size), each normalized by its target for scale invariance.
package reward

import (
	"fmt"
	"math"
)

// Objective is one performance objective with its target and penalty
// weight.
type Objective struct {
	// Name identifies the objective in reports ("train_step_time",
	// "serving_memory", …).
	Name string
	// Target is T₀: values at or below the target attract no ReLU
	// penalty. Must be positive.
	Target float64
	// Beta is the penalty weight β < 0 (the constructor enforces the
	// sign, accepting either convention).
	Beta float64
}

// Kind selects the combining function.
type Kind int

const (
	// ReLU is the paper's single-sided reward (Equation 1): a linear
	// penalty above target, none below — overachieving candidates are
	// never penalized.
	ReLU Kind = iota
	// Absolute is the TuNAS reward (Equation 2): deviation from the
	// target in either direction is penalized.
	Absolute
)

// String names the kind.
func (k Kind) String() string {
	if k == Absolute {
		return "absolute"
	}
	return "relu"
}

// KindByName resolves a reward name as flags and job specs spell it:
// "relu", or "absolute" (short form "abs").
func KindByName(name string) (Kind, error) {
	switch name {
	case "relu":
		return ReLU, nil
	case "absolute", "abs":
		return Absolute, nil
	}
	return 0, fmt.Errorf("unknown reward %q (want relu or absolute)", name)
}

// Function is a configured multi-objective reward.
type Function struct {
	Kind       Kind
	Objectives []Objective
}

// New constructs a reward function, validating targets and normalizing
// beta signs (betas act as penalties regardless of the sign passed in).
func New(kind Kind, objectives ...Objective) (*Function, error) {
	for i, o := range objectives {
		if !(o.Target > 0) { // also rejects NaN
			return nil, fmt.Errorf("reward: objective %q has non-positive target %v", o.Name, o.Target)
		}
		if o.Beta == 0 {
			return nil, fmt.Errorf("reward: objective %q has zero beta", o.Name)
		}
		objectives[i].Beta = -math.Abs(o.Beta)
	}
	return &Function{Kind: kind, Objectives: objectives}, nil
}

// MustNew is New that panics on error, for statically correct configs.
func MustNew(kind Kind, objectives ...Objective) *Function {
	f, err := New(kind, objectives...)
	if err != nil {
		panic(err)
	}
	return f
}

// Eval combines quality Q(α) with measured performance values (one per
// objective, in the objectives' order):
//
//	R(α) = Q(α) + Σᵢ βᵢ · pen(Tᵢ(α)/Tᵢ₀ − 1)
//
// where pen is ReLU or |·| depending on Kind, and βᵢ < 0.
func (f *Function) Eval(quality float64, perf []float64) float64 {
	if len(perf) != len(f.Objectives) {
		panic(fmt.Sprintf("reward: %d perf values for %d objectives", len(perf), len(f.Objectives)))
	}
	r := quality
	for i, o := range f.Objectives {
		dev := perf[i]/o.Target - 1
		switch f.Kind {
		case ReLU:
			if dev > 0 {
				r += o.Beta * dev
			}
		case Absolute:
			r += o.Beta * math.Abs(dev)
		}
	}
	return r
}

// MeetsTargets reports whether every objective is at or below target.
func (f *Function) MeetsTargets(perf []float64) bool {
	if len(perf) != len(f.Objectives) {
		panic(fmt.Sprintf("reward: %d perf values for %d objectives", len(perf), len(f.Objectives)))
	}
	for i, o := range f.Objectives {
		if perf[i] > o.Target*(1+1e-9) {
			return false
		}
	}
	return true
}
