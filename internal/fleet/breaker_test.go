package fleet

import (
	"testing"
	"time"
)

// TestBreakerLifecycle walks the full state machine: closed under the
// threshold, open at it, fast-failing through the cooldown, a single
// half-open probe after it, and closed again on probe success.
func TestBreakerLifecycle(t *testing.T) {
	t.Parallel()
	t0 := time.Unix(0, 0)
	b := newBreaker()

	if !b.allow(t0) || b.label() != "closed" {
		t.Fatalf("fresh breaker: allow=%v label=%s", b.allow(t0), b.label())
	}
	b.onFailure(t0)
	if !b.allow(t0) {
		t.Fatal("one failure under the threshold of 2 opened the breaker")
	}
	b.onFailure(t0)
	if b.label() != "open" {
		t.Fatalf("threshold failures left state %s", b.label())
	}
	if b.allow(t0.Add(breakerCooldown / 2)) {
		t.Fatal("open breaker admitted a dispatch inside the cooldown")
	}

	// Cooldown expiry elects exactly one half-open probe.
	probeAt := t0.Add(breakerCooldown * 3 / 2)
	if !b.allow(probeAt) {
		t.Fatal("expired cooldown refused the probe")
	}
	if b.label() != "half_open" {
		t.Fatalf("probe election left state %s", b.label())
	}
	if b.allow(probeAt) {
		t.Fatal("second caller admitted while the probe is in flight")
	}
	b.onSuccess()
	if b.label() != "closed" || !b.allow(probeAt) {
		t.Fatal("probe success did not close the breaker")
	}
}

// TestBreakerReopenDoublesCooldown: a failed probe reopens immediately
// with a doubled interval, and the doubling is capped.
func TestBreakerReopenDoublesCooldown(t *testing.T) {
	t.Parallel()
	t0 := time.Unix(0, 0)
	const cd = breakerCooldown
	b := newBreaker()

	b.onFailure(t0)
	b.onFailure(t0) // open #1: one cooldown
	if b.allow(t0.Add(cd / 2)) {
		t.Fatal("inside first cooldown")
	}
	if !b.allow(t0.Add(cd * 3 / 2)) {
		t.Fatal("first cooldown never expired")
	}
	b.onFailure(t0.Add(cd * 3 / 2)) // failed probe, open #2: two cooldowns
	if b.allow(t0.Add(cd * 3)) {
		t.Fatal("second cooldown was not doubled")
	}
	if !b.allow(t0.Add(cd * 4)) {
		t.Fatal("second cooldown never expired")
	}

	// Pile on failures: the interval must stay at the cap, not overflow.
	now := t0.Add(cd * 4)
	for i := 0; i < 40; i++ {
		b.onFailure(now)
		if !b.allow(now.Add(maxDelay + time.Millisecond)) {
			t.Fatalf("reopen %d: cooldown exceeded the %v cap", i, maxDelay)
		}
		now = now.Add(maxDelay + time.Millisecond)
	}
}

// TestBreakerIgnoresFailuresWhileOpen: stragglers that were already in
// flight when the breaker opened carry no new information.
func TestBreakerIgnoresFailuresWhileOpen(t *testing.T) {
	t.Parallel()
	t0 := time.Unix(0, 0)
	b := newBreaker()
	b.onFailure(t0)
	b.onFailure(t0)
	deadline := t0.Add(breakerCooldown)
	b.onFailure(t0.Add(10 * time.Millisecond)) // straggler must not extend the window
	if !b.allow(deadline.Add(time.Millisecond)) {
		t.Fatal("straggler failure extended the open interval")
	}
}

// TestBreakerProbeWithoutVerdict: a half-open probe that comes back
// with neither a result nor a failure must not keep the probe role —
// allow answers false to everyone else while it is held. A cancelled
// probe hands the role to the next caller without doubling the
// cooldown; a 429 on the probe closes the breaker, and only there.
func TestBreakerProbeWithoutVerdict(t *testing.T) {
	t.Parallel()
	t0 := time.Unix(0, 0)
	halfOpen := func() (*breaker, time.Time) {
		b := newBreaker()
		b.onFailure(t0)
		b.onFailure(t0)
		probeAt := t0.Add(breakerCooldown * 3 / 2)
		if !b.allow(probeAt) || b.label() != "half_open" {
			t.Fatalf("setup: probe not elected, state %s", b.label())
		}
		return b, probeAt
	}

	b, probeAt := halfOpen()
	b.onAbandoned()
	if b.label() != "open" {
		t.Fatalf("abandoned probe left state %s, want open", b.label())
	}
	if !b.allow(probeAt) || b.label() != "half_open" {
		t.Fatalf("abandoned probe did not hand the role on at once: state %s", b.label())
	}
	// Nothing was learned, so the next failed probe reopens for the
	// second interval (two cooldowns), not the third.
	b.onFailure(probeAt)
	if b.allow(probeAt.Add(breakerCooldown * 3 / 2)) {
		t.Fatal("reopen after an abandoned probe used the base cooldown")
	}
	if !b.allow(probeAt.Add(breakerCooldown * 5 / 2)) {
		t.Fatal("abandoned probe doubled the cooldown")
	}

	b, probeAt = halfOpen()
	b.onRejected()
	if b.label() != "closed" || !b.allow(probeAt) {
		t.Fatalf("429 on the probe left state %s, want closed", b.label())
	}

	// Outside half-open neither moves anything: a 429 does not clear a
	// failure streak, and a cancelled straggler does not reopen or
	// shorten an open interval.
	b = newBreaker()
	b.onFailure(t0)
	b.onRejected()
	b.onAbandoned()
	b.onFailure(t0)
	if b.label() != "open" {
		t.Fatalf("429 or cancel between two failures reset the streak: state %s", b.label())
	}
	b.onRejected()
	b.onAbandoned()
	if b.allow(t0.Add(breakerCooldown / 2)) {
		t.Fatal("429 or cancel while open cut the cooldown short")
	}
}

// TestParseRetryAfterClamps: the worker hint stretches a retry but can
// never park a unit past the backoff cap.
func TestParseRetryAfterClamps(t *testing.T) {
	t.Parallel()
	for v, want := range map[string]time.Duration{
		"1":      time.Second,
		"2":      2 * time.Second,
		"9999":   2 * time.Second,
		"0":      0,
		"-3":     0,
		"":       0,
		"potato": 0,
		"1.5":    0,
	} {
		if got := parseRetryAfter(v); got != want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", v, got, want)
		}
	}
}
