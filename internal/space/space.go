// Package space defines H₂O-NAS search spaces: sets of categorical
// decisions with builders for the DLRM, CNN, transformer, and hybrid-ViT
// spaces of Table 5, plus decoders that turn a decision assignment into an
// arch.Graph (for performance simulation) or a super-network configuration
// (for one-shot training).
//
// To the RL search algorithm a space is just "a set of categorical
// decisions, where each decision controls a different aspect of the
// network architecture" (Section 4.1); all model-domain knowledge lives in
// the builders and decoders here.
package space

import (
	"fmt"
	"math"
)

// Decision is one independent categorical choice. Values carries a numeric
// encoding of each option used for performance-model featurization; Labels
// names the options for display.
type Decision struct {
	Name   string
	Labels []string
	Values []float64
}

// Arity returns the number of options.
func (d *Decision) Arity() int { return len(d.Values) }

// Max returns the index and value of the decision's largest option (the
// first on ties) — the option the maximal sub-network selects, and the
// extent a weight-sharing super-network must allocate for it.
func (d *Decision) Max() (index int, value float64) {
	for j, v := range d.Values {
		if v > d.Values[index] {
			index = j
		}
	}
	return index, d.Values[index]
}

// NewDecision builds a decision from numeric options, deriving labels.
func NewDecision(name string, values ...float64) Decision {
	labels := make([]string, len(values))
	for i, v := range values {
		labels[i] = fmt.Sprintf("%g", v)
	}
	return Decision{Name: name, Labels: labels, Values: values}
}

// NewLabeledDecision builds a decision with explicit labels and values.
func NewLabeledDecision(name string, labels []string, values []float64) Decision {
	if len(labels) != len(values) {
		panic(fmt.Sprintf("space: decision %q has %d labels but %d values", name, len(labels), len(values)))
	}
	return Decision{Name: name, Labels: labels, Values: values}
}

// Assignment selects one option index per decision, in decision order.
type Assignment []int

// Space is an ordered set of decisions.
type Space struct {
	Name      string
	Decisions []Decision

	index map[string]int
}

// NewSpace builds a space, indexing decisions by name.
func NewSpace(name string, decisions ...Decision) *Space {
	s := &Space{Name: name, Decisions: decisions, index: make(map[string]int, len(decisions))}
	for i, d := range decisions {
		if _, dup := s.index[d.Name]; dup {
			panic(fmt.Sprintf("space: duplicate decision %q", d.Name))
		}
		if d.Arity() == 0 {
			panic(fmt.Sprintf("space: decision %q has no options", d.Name))
		}
		s.index[d.Name] = i
	}
	return s
}

// Add appends a decision and returns its index.
func (s *Space) Add(d Decision) int {
	if s.index == nil {
		s.index = make(map[string]int)
	}
	if _, dup := s.index[d.Name]; dup {
		panic(fmt.Sprintf("space: duplicate decision %q", d.Name))
	}
	if d.Arity() == 0 {
		panic(fmt.Sprintf("space: decision %q has no options", d.Name))
	}
	s.index[d.Name] = len(s.Decisions)
	s.Decisions = append(s.Decisions, d)
	return len(s.Decisions) - 1
}

// Lookup returns the index of the named decision, or -1.
func (s *Space) Lookup(name string) int {
	i, ok := s.index[name]
	if !ok {
		return -1
	}
	return i
}

// Log10Size returns log₁₀ of the number of architectures in the space
// (the product of decision arities). Spaces like DLRM's O(10^282) overflow
// float64 as raw counts, so size is carried in log space.
func (s *Space) Log10Size() float64 {
	var sum float64
	for _, d := range s.Decisions {
		sum += math.Log10(float64(d.Arity()))
	}
	return sum
}

// Validate checks that the assignment has one in-range index per decision.
func (s *Space) Validate(a Assignment) error {
	if len(a) != len(s.Decisions) {
		return fmt.Errorf("space: assignment length %d != %d decisions", len(a), len(s.Decisions))
	}
	for i, choice := range a {
		if choice < 0 || choice >= s.Decisions[i].Arity() {
			return fmt.Errorf("space: decision %q choice %d outside [0,%d)", s.Decisions[i].Name, choice, s.Decisions[i].Arity())
		}
	}
	return nil
}

// Describe renders the assignment as "decision=label" pairs.
func (s *Space) Describe(a Assignment) string {
	if err := s.Validate(a); err != nil {
		return err.Error()
	}
	out := ""
	for i, d := range s.Decisions {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%s", d.Name, d.Labels[a[i]])
	}
	return out
}

// Features encodes an assignment as the numeric feature vector the
// performance model consumes: each decision contributes its selected
// value, min-max normalized over that decision's options so every feature
// lies in [0, 1] (constant decisions encode as 0).
func (s *Space) Features(a Assignment) []float64 {
	out := make([]float64, len(s.Decisions))
	for i, d := range s.Decisions {
		lo, hi := d.Values[0], d.Values[0]
		for _, v := range d.Values {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if hi > lo {
			out[i] = (d.Values[a[i]] - lo) / (hi - lo)
		}
	}
	return out
}

// setNearest points a at the option of decision i whose value is
// closest to want.
func (s *Space) setNearest(a Assignment, i int, want float64) {
	best, bestDiff := 0, math.Inf(1)
	for j, v := range s.Decisions[i].Values {
		if d := math.Abs(v - want); d < bestDiff {
			best, bestDiff = j, d
		}
	}
	a[i] = best
}

// offsets returns base + k·step for k in [lo, hi], excluding results below
// floor (Table 5's "excluding zero": a width of zero is not a valid layer,
// except where zero explicitly means removal and floor is 0).
func offsets(base, step, lo, hi, floor int) []float64 {
	var out []float64
	for k := lo; k <= hi; k++ {
		v := base + k*step
		if v < floor {
			continue
		}
		out = append(out, float64(v))
	}
	return out
}
