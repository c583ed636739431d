package shardrpc

import (
	"testing"
	"time"
)

type policyClock struct{ now time.Time }

func (c *policyClock) Now() time.Time      { return c.now }
func (c *policyClock) Sleep(time.Duration) {}

func TestPolicyDefaulted(t *testing.T) {
	def := RPCDefaults()

	got := Policy{}.Defaulted(def)
	if got != def {
		t.Fatalf("zero policy defaulted to %+v, want %+v", got, def)
	}

	// Set fields survive; unset fields fill in.
	partial := Policy{Timeout: time.Minute, BreakerThreshold: 9}
	got = partial.Defaulted(def)
	if got.Timeout != time.Minute || got.BreakerThreshold != 9 {
		t.Fatalf("set fields overwritten: %+v", got)
	}
	if got.MaxAttempts != def.MaxAttempts || got.BackoffBase != def.BackoffBase ||
		got.BackoffMax != def.BackoffMax || got.BreakerCooldown != def.BreakerCooldown {
		t.Fatalf("unset fields not defaulted: %+v", got)
	}

	// Negative values count as unset.
	if got := (Policy{Timeout: -1}).Defaulted(def); got.Timeout != def.Timeout {
		t.Fatalf("negative timeout kept: %v", got.Timeout)
	}
}

func TestBreakerOpensAtThresholdAndCoolsDown(t *testing.T) {
	clk := &policyClock{now: time.Unix(1754400000, 0)}
	br := NewBreaker(3, 10*time.Second, clk)

	if !br.Allow() || br.State() != BreakerClosed {
		t.Fatal("fresh breaker not closed")
	}
	for i := 0; i < 2; i++ {
		opened, died := br.Failure(false)
		if opened || died {
			t.Fatalf("failure %d below threshold opened=%v died=%v", i+1, opened, died)
		}
		if !br.Allow() {
			t.Fatalf("breaker open after %d failures, threshold is 3", i+1)
		}
	}
	opened, died := br.Failure(false)
	if !opened || died {
		t.Fatalf("threshold failure: opened=%v died=%v, want open", opened, died)
	}
	if br.Allow() || br.State() != BreakerOpen {
		t.Fatal("breaker not open after threshold")
	}

	// Every further failure re-opens (extends) the cooldown.
	clk.now = clk.now.Add(5 * time.Second)
	if opened, _ := br.Failure(false); !opened {
		t.Fatal("past-threshold failure did not re-open")
	}
	clk.now = clk.now.Add(6 * time.Second) // 11s after first open, 6s after re-open
	if br.Allow() {
		t.Fatal("breaker allowed during extended cooldown")
	}

	// Cooldown expiry half-opens: eligible again.
	clk.now = clk.now.Add(5 * time.Second)
	if !br.Allow() || br.State() != BreakerClosed {
		t.Fatal("breaker not eligible after cooldown")
	}
	// A success fully closes: the next failure starts counting from zero.
	br.Success()
	if opened, _ := br.Failure(false); opened {
		t.Fatal("first failure after success re-opened; consecutive count not reset")
	}
}

func TestBreakerHalfOpenReopensImmediately(t *testing.T) {
	clk := &policyClock{now: time.Unix(1754400000, 0)}
	br := NewBreaker(2, time.Second, clk)
	br.Failure(false)
	br.Failure(false) // opens
	clk.now = clk.now.Add(2 * time.Second)
	if !br.Allow() {
		t.Fatal("not half-open after cooldown")
	}
	// Without an intervening success the consecutive count persists, so
	// one probe failure re-opens immediately.
	if opened, _ := br.Failure(false); !opened {
		t.Fatal("half-open probe failure did not re-open")
	}
	if br.Allow() {
		t.Fatal("breaker allowed right after probe failure")
	}
}

func TestBreakerPermanentFailureIsTerminal(t *testing.T) {
	clk := &policyClock{now: time.Unix(1754400000, 0)}
	br := NewBreaker(3, time.Second, clk)
	opened, died := br.Failure(true)
	if opened || !died {
		t.Fatalf("permanent failure: opened=%v died=%v, want died", opened, died)
	}
	if _, died := br.Failure(true); died {
		t.Fatal("second permanent failure reported died again; must report exactly once")
	}
	if br.Allow() || !br.Dead() || br.State() != BreakerDead {
		t.Fatal("dead breaker still usable")
	}
	clk.now = clk.now.Add(time.Hour)
	if br.Allow() {
		t.Fatal("dead breaker revived by the clock")
	}
	br.Success()
	if br.Allow() {
		t.Fatal("dead breaker revived by a success")
	}
}

func TestBackoffBoundsAndDeterminism(t *testing.T) {
	base, max := 10*time.Millisecond, 80*time.Millisecond
	b := NewBackoff(base, max, 42)
	for attempt := 0; attempt < 8; attempt++ {
		d := base << attempt
		if d > max {
			d = max
		}
		got := b.Delay(attempt)
		if got < d/2 || got >= d {
			t.Fatalf("Delay(%d) = %v outside [%v, %v)", attempt, got, d/2, d)
		}
	}

	// A fixed seed reproduces the exact delay sequence.
	b1, b2 := NewBackoff(base, max, 7), NewBackoff(base, max, 7)
	for attempt := 0; attempt < 6; attempt++ {
		if d1, d2 := b1.Delay(attempt), b2.Delay(attempt); d1 != d2 {
			t.Fatalf("Delay(%d) differs across same-seed schedules: %v vs %v", attempt, d1, d2)
		}
	}
}
