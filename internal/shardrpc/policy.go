package shardrpc

import (
	"sync"
	"time"

	"h2onas/internal/checkpoint"
	"h2onas/internal/tensor"
)

// The retry/breaker policy of shard RPCs: shard steps are short and the
// coordinator blocks on the slowest shard, so retries are few and a flaky
// worker is parked quickly (and probed again after a cooldown) instead of
// stalling every step.
const (
	// defaultTimeout is the per-call completion budget when
	// Options.Timeout is unset; a call running past it counts as a
	// transient failure.
	defaultTimeout = 10 * time.Second
	// maxAttempts bounds the retry loop per logical operation (the first
	// try plus maxAttempts-1 retries).
	maxAttempts = 2
	// backoffBase and backoffMax shape the jittered exponential backoff
	// between retries.
	backoffBase = 2 * time.Millisecond
	backoffMax  = 100 * time.Millisecond
	// breakerThreshold consecutive failures open a worker's circuit
	// breaker for breakerCooldown.
	breakerThreshold = 2
	breakerCooldown  = 2 * time.Second
)

// BreakerState is a breaker's position, exported as a gauge by callers.
type BreakerState int

const (
	BreakerClosed BreakerState = iota // target usable
	BreakerOpen                       // cooling down after repeated failures
)

// Breaker is a consecutive-failure circuit breaker for one remote worker.
// Threshold consecutive failures open it for the cooldown; an expired
// cooldown leaves it half-open — eligible again, re-opened immediately by
// the next failure. Safe for concurrent use.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	clock     checkpoint.Clock

	mu          sync.Mutex
	consecutive int
	openUntil   time.Time
}

// NewBreaker builds a breaker; nil clock uses the wall clock.
func NewBreaker(threshold int, cooldown time.Duration, clock checkpoint.Clock) *Breaker {
	if clock == nil {
		clock = checkpoint.RealClock()
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, clock: clock}
}

// Allow reports whether the target may be tried now.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.openUntil.After(b.clock.Now())
}

// Success records a successful call, closing the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.consecutive = 0
	b.mu.Unlock()
}

// Failure records a failed call. Once the consecutive count reaches the
// threshold, every further failure (re-)opens the breaker for the
// cooldown and reports opened.
func (b *Breaker) Failure() (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	if b.consecutive >= b.threshold {
		b.openUntil = b.clock.Now().Add(b.cooldown)
		return true
	}
	return false
}

// State returns the breaker's current position.
func (b *Breaker) State() BreakerState {
	if b.Allow() {
		return BreakerClosed
	}
	return BreakerOpen
}

// Backoff produces jittered exponential retry delays: attempt n waits a
// uniformly jittered [d/2, d) where d = min(base·2ⁿ, max) — "full
// jitter" halved to keep a floor, so synchronized clients desynchronize.
// Safe for concurrent use; the jitter stream is seeded, so a fixed seed
// gives a reproducible delay sequence.
type Backoff struct {
	base, max time.Duration

	mu  sync.Mutex
	rng *tensor.RNG
}

// NewBackoff builds a backoff schedule (seed 0 is a valid seed).
func NewBackoff(base, max time.Duration, seed uint64) *Backoff {
	return &Backoff{base: base, max: max, rng: tensor.NewRNG(seed)}
}

// Delay returns the wait before retry attempt n (0-based: the delay
// preceding the first retry is Delay(0)).
func (b *Backoff) Delay(attempt int) time.Duration {
	d := b.base
	for i := 0; i < attempt && d < b.max; i++ {
		d *= 2
	}
	if d > b.max {
		d = b.max
	}
	b.mu.Lock()
	u := b.rng.Float64()
	b.mu.Unlock()
	return d/2 + time.Duration(u*float64(d/2))
}
