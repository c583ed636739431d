package shardrpc

import (
	"sync"
	"time"

	"h2onas/internal/checkpoint"
	"h2onas/internal/tensor"
)

// Policy bundles the retry/timeout/breaker knobs of a shard RPC. The zero
// value defers every knob to RPCDefaults via Defaulted.
type Policy struct {
	// Timeout is the per-call completion budget; a call running past it
	// counts as a transient failure.
	Timeout time.Duration
	// MaxAttempts bounds the retry loop per logical operation (the first
	// try plus MaxAttempts-1 retries).
	MaxAttempts int
	// BackoffBase and BackoffMax shape the jittered exponential backoff
	// between retries.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold consecutive failures open a target's circuit
	// breaker for BreakerCooldown. Permanent errors open it forever.
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

// Defaulted fills every unset (zero or negative) field of p from def and
// returns the result.
func (p Policy) Defaulted(def Policy) Policy {
	if p.Timeout <= 0 {
		p.Timeout = def.Timeout
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = def.BackoffBase
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = def.BackoffMax
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = def.BreakerThreshold
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = def.BreakerCooldown
	}
	return p
}

// BreakerState is a breaker's position, exported as a gauge by callers.
type BreakerState int

const (
	BreakerClosed BreakerState = iota // target usable
	BreakerOpen                       // cooling down after repeated failures
	BreakerDead                       // permanently failed
)

// Breaker is a consecutive-failure circuit breaker for one remote worker.
// Threshold consecutive failures open it for the cooldown; an expired
// cooldown leaves it half-open — eligible again, re-opened immediately by
// the next failure — and a permanent failure kills it for good. Safe for
// concurrent use.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	clock     checkpoint.Clock

	mu          sync.Mutex
	consecutive int
	openUntil   time.Time
	dead        bool
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
	return !b.dead && !b.openUntil.After(b.clock.Now())
}

// Success records a successful call, closing the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.consecutive = 0
	b.mu.Unlock()
}

// Failure records a failed call. A permanent failure marks the target
// dead (died true, exactly once); otherwise, once the consecutive count
// reaches the threshold, every further failure (re-)opens the breaker
// for the cooldown and reports opened. The caller owns the metrics.
func (b *Breaker) Failure(permanent bool) (opened, died bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	if permanent && !b.dead {
		b.dead = true
		return false, true
	}
	if b.consecutive >= b.threshold {
		b.openUntil = b.clock.Now().Add(b.cooldown)
		return true, false
	}
	return false, false
}

// Dead reports whether the target failed permanently.
func (b *Breaker) Dead() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dead
}

// State returns the breaker's current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.dead:
		return BreakerDead
	case b.openUntil.After(b.clock.Now()):
		return BreakerOpen
	default:
		return BreakerClosed
	}
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
