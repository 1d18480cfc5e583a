package fleet

import (
	"sync"
	"time"
)

// breaker states. Closed admits dispatches normally; open fails them
// fast; half-open admits exactly one probe dispatch whose outcome
// decides between closing and reopening.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is one worker's circuit breaker, and the coordinator's only
// record of its health: breakerThreshold consecutive dispatch
// failures open it, a cooldown (doubled per consecutive open, capped)
// must elapse before a single half-open probe dispatch is admitted,
// and that probe's outcome closes it or reopens it. Admission
// rejections (429) are not failures and never open it; a probe that
// ends without telling the worker healthy from sick hands the probe
// role on instead of keeping it (onRejected, onAbandoned).
//
// The breaker only decides *fast-fail versus real dispatch*; it never
// blocks batch progress. A fast-failed unit still consumes an attempt,
// so when every breaker is open the attempt cap drives every unit into
// coordinator-local fallback exactly as a dead fleet does.
type breaker struct {
	mu        sync.Mutex
	state     int
	failures  int // consecutive failures while closed
	opens     int // consecutive opens without an intervening success
	openUntil time.Time
}

func newBreaker() *breaker { return &breaker{} }

// allow reports whether a dispatch may go to the worker now. The call
// that first finds an expired cooldown flips open to half-open and is
// thereby elected the probe; concurrent callers keep fast-failing
// until the probe reports.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Before(b.openUntil) {
			return false
		}
		b.state = breakerHalfOpen
		return true
	default: // half-open: the one probe is already in flight
		return false
	}
}

// onSuccess closes the breaker and clears all streaks.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	b.close()
	b.mu.Unlock()
}

// close (callers hold b.mu) closes the breaker with clean streaks.
func (b *breaker) close() {
	b.state = breakerClosed
	b.failures = 0
	b.opens = 0
}

// onRejected records a 429. Admission is not failure, so under closed
// or open it moves nothing; as the answer to the half-open probe it
// proves the worker alive, which is all the probe was asking.
func (b *breaker) onRejected() {
	b.mu.Lock()
	if b.state == breakerHalfOpen {
		b.close()
	}
	b.mu.Unlock()
}

// onAbandoned records a dispatch that ended without a verdict on the
// worker — its batch was cancelled under it. If that was the half-open
// probe, nobody else will report for it and allow would answer false
// for good, so the breaker goes back to open with its cooldown already
// expired: the next caller is elected probe, and the streak of opens
// stands because nothing was learned.
func (b *breaker) onAbandoned() {
	b.mu.Lock()
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
		b.openUntil = time.Time{}
	}
	b.mu.Unlock()
}

// onFailure records a dispatch failure: a failed half-open probe
// reopens immediately with a doubled cooldown; under closed it opens
// once the consecutive streak reaches the threshold. Failures of
// dispatches that were in flight when the breaker opened are ignored —
// they carry no information the open didn't.
func (b *breaker) onFailure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.reopen(now)
	case breakerClosed:
		b.failures++
		if b.failures >= breakerThreshold {
			b.reopen(now)
		}
	}
}

// reopen (callers hold b.mu) opens the breaker for the current
// cooldown, doubling it for the next open up to the cap.
func (b *breaker) reopen(now time.Time) {
	b.state = breakerOpen
	b.failures = 0
	b.openUntil = now.Add(capped(breakerCooldown, b.opens))
	b.opens++
}

// closed reports the closed state, the coordinator's view of a healthy
// worker.
func (b *breaker) closed() bool { return b.label() == "closed" }

// label renders the state for status endpoints and /metrics.
func (b *breaker) label() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half_open"
	default:
		return "closed"
	}
}
