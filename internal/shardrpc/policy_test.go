package shardrpc

import (
	"testing"
	"time"
)

type policyClock struct{ now time.Time }

func (c *policyClock) Now() time.Time      { return c.now }
func (c *policyClock) Sleep(time.Duration) {}

func TestDialDefaultsTimeout(t *testing.T) {
	for _, tc := range []struct{ set, want time.Duration }{
		{0, defaultTimeout},
		{-1, defaultTimeout}, // negative counts as unset
		{time.Minute, time.Minute},
	} {
		tr, err := Dial([]string{"127.0.0.1:1"}, Options{Timeout: tc.set})
		if err != nil {
			t.Fatal(err)
		}
		if tr.timeout != tc.want {
			t.Fatalf("Options.Timeout %v dialed with timeout %v, want %v", tc.set, tr.timeout, tc.want)
		}
	}
}

func TestBreakerOpensAtThresholdAndCoolsDown(t *testing.T) {
	clk := &policyClock{now: time.Unix(1754400000, 0)}
	br := NewBreaker(3, 10*time.Second, clk)

	if !br.Allow() || br.State() != BreakerClosed {
		t.Fatal("fresh breaker not closed")
	}
	for i := 0; i < 2; i++ {
		if br.Failure() {
			t.Fatalf("failure %d below threshold opened the breaker", i+1)
		}
		if !br.Allow() {
			t.Fatalf("breaker open after %d failures, threshold is 3", i+1)
		}
	}
	if !br.Failure() {
		t.Fatal("threshold failure did not open the breaker")
	}
	if br.Allow() || br.State() != BreakerOpen {
		t.Fatal("breaker not open after threshold")
	}

	// Every further failure re-opens (extends) the cooldown.
	clk.now = clk.now.Add(5 * time.Second)
	if !br.Failure() {
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
	if br.Failure() {
		t.Fatal("first failure after success re-opened; consecutive count not reset")
	}
}

func TestBreakerHalfOpenReopensImmediately(t *testing.T) {
	clk := &policyClock{now: time.Unix(1754400000, 0)}
	br := NewBreaker(2, time.Second, clk)
	br.Failure()
	br.Failure() // opens
	clk.now = clk.now.Add(2 * time.Second)
	if !br.Allow() {
		t.Fatal("not half-open after cooldown")
	}
	// Without an intervening success the consecutive count persists, so
	// one probe failure re-opens immediately.
	if !br.Failure() {
		t.Fatal("half-open probe failure did not re-open")
	}
	if br.Allow() {
		t.Fatal("breaker allowed right after probe failure")
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
