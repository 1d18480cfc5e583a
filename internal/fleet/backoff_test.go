package fleet

import (
	"testing"
	"time"
)

// TestBackoffClamped pins the capped doubling behind both the
// re-dispatch delay and the breaker cooldown against shift overflow: a
// long-dead worker reaches attempt and reopen counts where an unclamped
// base << n wraps int64 to zero or negative — which would turn the
// anti-spin sleep into no sleep at all.
func TestBackoffClamped(t *testing.T) {
	const cap = 2 * time.Second
	if got := capped(backoffBase, 0); got != 50*time.Millisecond {
		t.Fatalf("capped(backoffBase, 0) = %v, want the 50ms base", got)
	}
	if got := capped(backoffBase, 1); got != 100*time.Millisecond {
		t.Fatalf("capped(backoffBase, 1) = %v, want one doubling", got)
	}
	if got := capped(backoffBase, -1); got != 50*time.Millisecond {
		t.Fatalf("capped(backoffBase, -1) = %v, want clamped to the base", got)
	}
	// Every count — including ones far past the overflow point (base
	// 50ms wraps the shift around n = 38) — lands in (0, cap].
	for _, n := range []int{6, 38, 63, 1000, 1 << 30} {
		for _, base := range []time.Duration{backoffBase, breakerCooldown} {
			if got := capped(base, n); got <= 0 || got > cap {
				t.Fatalf("capped(%v, %d) = %v, want within (0, %v]", base, n, got, cap)
			}
		}
	}
	// A base at or above the cap is pinned to the cap, not doubled.
	for _, base := range []time.Duration{cap, time.Hour} {
		for _, n := range []int{0, 4, 99} {
			if got := capped(base, n); got != cap {
				t.Fatalf("capped(%v, %d) = %v, want %v", base, n, got, cap)
			}
		}
	}
}
