package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"h2onas/internal/space"
	"h2onas/internal/tensor"
	"h2onas/internal/wire"
)

// HalvingOpts configures the successive-halving strategy.
type HalvingOpts struct {
	// Cohort is the number of candidates in the initial rung (default 8).
	Cohort int
	// Eta is the culling factor between rungs (default 2: halving).
	Eta int
	// Budget is the total number of candidate evaluations the plan
	// spends — for a fault-free run, Steps × (Shards − sandwich).
	// Required.
	Budget int
}

// Rung is one stage of a successive-halving plan: Survivors candidates
// share Evals evaluations (round-robin, so each gets Evals/Survivors ±1).
type Rung struct {
	Survivors int
	Evals     int
}

// PlanRungs splits an evaluation budget across successive-halving rungs.
// Survivor counts shrink by eta per rung down to 1; every rung grants at
// least one evaluation per survivor, and the remaining budget is spread
// evenly with earlier rungs absorbing the remainder (exploration-first).
// The rung evaluations sum to budget exactly — the budget-accounting
// invariant the promotion arithmetic tests pin down.
func PlanRungs(budget, cohort, eta int) ([]Rung, error) {
	if cohort < 2 {
		return nil, fmt.Errorf("core: halving needs a cohort of at least 2, got %d", cohort)
	}
	if eta < 2 {
		return nil, fmt.Errorf("core: halving needs eta ≥ 2, got %d", eta)
	}
	var survivors []int
	for s := cohort; ; {
		survivors = append(survivors, s)
		if s == 1 {
			break
		}
		s /= eta
		if s < 1 {
			s = 1
		}
	}
	minimum := 0
	for _, s := range survivors {
		minimum += s
	}
	if budget < minimum {
		return nil, fmt.Errorf("core: halving budget %d below minimum %d (one evaluation per survivor across %d rungs of cohort %d)",
			budget, minimum, len(survivors), cohort)
	}
	left := budget - minimum
	each, rem := left/len(survivors), left%len(survivors)
	rungs := make([]Rung, len(survivors))
	for i, s := range survivors {
		extra := 0
		if i < rem {
			extra = 1
		}
		rungs[i] = Rung{Survivors: s, Evals: s + each + extra}
	}
	return rungs, nil
}

// shCand is one live successive-halving candidate with its accumulated
// reward.
type shCand struct {
	a   space.Assignment
	sum float64
	n   int64
}

func (c *shCand) mean() float64 {
	if c.n == 0 {
		return math.Inf(-1)
	}
	return c.sum / float64(c.n)
}

// SuccessiveHalving is the multi-trial baseline layered over the
// one-shot search runner: a cohort of random candidates is evaluated
// round-robin against the shared super-network, and at each rung
// boundary the bottom (1 − 1/eta) by mean reward is culled while the
// survivors' evaluation budget per head grows — cheap noisy screening
// first, concentrated measurement of the finalists last (Jamieson &
// Talwalkar; the rung arithmetic of Hyperband's inner loop). After the
// final rung the plan is spent and every further sample exploits the
// incumbent, which keeps training the shared weights toward it.
type SuccessiveHalving struct {
	sp    *space.Space
	opts  HalvingOpts
	rungs []Rung

	seeded    bool
	cohort    []shCand
	rung      int
	rungEvals int
	next      int
}

// NewSuccessiveHalving returns the successive-halving strategy over the
// space, or an error if the budget cannot cover the rung plan.
func NewSuccessiveHalving(sp *space.Space, opts HalvingOpts) (*SuccessiveHalving, error) {
	if opts.Cohort <= 0 {
		opts.Cohort = 8
	}
	if opts.Eta <= 0 {
		opts.Eta = 2
	}
	rungs, err := PlanRungs(opts.Budget, opts.Cohort, opts.Eta)
	if err != nil {
		return nil, err
	}
	return &SuccessiveHalving{sp: sp, opts: opts, rungs: rungs}, nil
}

// Name embeds the plan-shaping hyperparameters; a resumed run with a
// different cohort, eta or budget would walk different rungs, so the
// fingerprint refuses it.
func (h *SuccessiveHalving) Name() string {
	return fmt.Sprintf("halving/c%d/e%d/b%d", h.opts.Cohort, h.opts.Eta, h.opts.Budget)
}

// done reports whether the rung plan is fully spent.
func (h *SuccessiveHalving) done() bool { return h.rung >= len(h.rungs) }

// Sample hands out the live cohort round-robin. Warmup steps sample
// uniformly (pure weight pretraining — their evaluations never reach
// Update); the cohort itself is drawn lazily at the first real step so
// its RNG consumption is part of the checkpointed stream like everything
// else. Once the plan is spent, Sample exploits the incumbent.
func (h *SuccessiveHalving) Sample(rng *tensor.RNG, warmup bool) space.Assignment {
	if warmup {
		return RandomAssignment(h.sp, rng)
	}
	if !h.seeded {
		h.cohort = make([]shCand, h.opts.Cohort)
		for i := range h.cohort {
			h.cohort[i] = shCand{a: RandomAssignment(h.sp, rng)}
		}
		h.seeded = true
	}
	if h.done() {
		return h.Best()
	}
	c := &h.cohort[h.next]
	h.next = (h.next + 1) % len(h.cohort)
	return slices.Clone(c.a)
}

// Update credits each evaluation to its candidate (matched by
// assignment; the first match wins, deterministically) and advances the
// rung once its evaluation budget is consumed. Samples that match no
// live candidate — post-plan exploitation steps, or evaluations of a
// candidate culled between Sample and a degraded step's late Update —
// are ignored: the rung accounting counts only credited evaluations.
func (h *SuccessiveHalving) Update(samples []space.Assignment, rewards []float64) {
	for i, a := range samples {
		if h.done() {
			return
		}
		idx := h.find(a)
		if idx < 0 {
			continue
		}
		h.cohort[idx].sum += rewards[i]
		h.cohort[idx].n++
		h.rungEvals++
		if h.rungEvals >= h.rungs[h.rung].Evals {
			h.promote()
		}
	}
}

// find returns the live candidate equal to a, or -1.
func (h *SuccessiveHalving) find(a space.Assignment) int {
	for i := range h.cohort {
		if slices.Equal(h.cohort[i].a, a) {
			return i
		}
	}
	return -1
}

// promote closes the current rung: candidates are ranked by mean reward
// (never-evaluated candidates last, ties by current position) and the
// next rung's survivor count is kept, best first. The round-robin cursor
// and rung accounting reset.
func (h *SuccessiveHalving) promote() {
	h.rung++
	if h.done() {
		return
	}
	order := h.ranked()
	keep := h.rungs[h.rung].Survivors
	if keep > len(order) {
		keep = len(order)
	}
	culled := make([]shCand, keep)
	for i := 0; i < keep; i++ {
		culled[i] = h.cohort[order[i]]
	}
	h.cohort = culled
	h.rungEvals = 0
	h.next = 0
}

// ranked returns cohort indices by mean reward descending, position
// ascending on ties — a deterministic total order.
func (h *SuccessiveHalving) ranked() []int {
	order := make([]int, len(h.cohort))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		mx, my := h.cohort[order[x]].mean(), h.cohort[order[y]].mean()
		if mx != my {
			return mx > my
		}
		return order[x] < order[y]
	})
	return order
}

// Best returns the live candidate with the highest mean reward.
func (h *SuccessiveHalving) Best() space.Assignment {
	if !h.seeded || len(h.cohort) == 0 {
		return make(space.Assignment, len(h.sp.Decisions))
	}
	return slices.Clone(h.cohort[h.ranked()[0]].a)
}

// Diagnostics measure the live cohort's per-decision concentration; they
// tighten as rungs cull.
func (h *SuccessiveHalving) Diagnostics() (entropy, confidence float64) {
	if !h.seeded {
		return uniformDiag(h.sp)
	}
	return empiricalDiag(h.sp, h.cohort, func(c *shCand) space.Assignment { return c.a })
}

func (h *SuccessiveHalving) StateBytes() []byte {
	var e wire.Enc
	e.Bool(h.seeded)
	e.U32(uint32(h.rung))
	e.U32(uint32(h.rungEvals))
	e.U32(uint32(h.next))
	e.U32(uint32(len(h.cohort)))
	for i := range h.cohort {
		encodeAssignment(&e, h.cohort[i].a)
		e.F64(h.cohort[i].sum)
		e.U64(uint64(h.cohort[i].n))
	}
	return e.Buf
}

func (h *SuccessiveHalving) RestoreState(data []byte) error {
	d := wire.NewDec(data)
	seeded := d.Bool()
	rung := int(d.U32())
	rungEvals := int(d.U32())
	next := int(d.U32())
	n := int(d.U32())
	var cohort []shCand
	if d.Count(n, 20, "cohort") { // ≥ 4 (len) + 8 (sum) + 8 (n) bytes each
		cohort = make([]shCand, n)
		for i := range cohort {
			cohort[i] = shCand{a: decodeAssignment(d), sum: d.F64(), n: int64(d.U64())}
		}
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("halving state: %w", err)
	}
	if rung < 0 || rung > len(h.rungs) {
		return fmt.Errorf("halving state rung %d outside the %d-rung plan", rung, len(h.rungs))
	}
	if n > h.opts.Cohort {
		return fmt.Errorf("halving state cohort %d exceeds configured size %d", n, h.opts.Cohort)
	}
	if seeded && n == 0 && rung < len(h.rungs) {
		return fmt.Errorf("halving state is seeded mid-plan but has no live candidates")
	}
	if next < 0 || (n > 0 && next >= n) {
		return fmt.Errorf("halving state cursor %d outside cohort of %d", next, n)
	}
	for i := range cohort {
		if cohort[i].a == nil {
			return fmt.Errorf("halving state candidate %d is nil", i)
		}
		if err := h.sp.Validate(cohort[i].a); err != nil {
			return fmt.Errorf("halving state candidate %d: %w", i, err)
		}
	}
	h.seeded, h.rung, h.rungEvals, h.next, h.cohort = seeded, rung, rungEvals, next, cohort
	return nil
}
