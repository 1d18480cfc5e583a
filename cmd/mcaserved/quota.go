package main

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// quotaTable rate-limits the expensive endpoints per tenant with
// classic token buckets: each tenant accrues rate tokens per second up
// to burst, one request costs one token, and an empty bucket yields a
// 429 whose Retry-After says when the next token lands. Tenancy is the
// X-Tenant header; absent means the anonymous tenant, which shares one
// bucket — so an unlabelled client population is throttled as a whole
// rather than bypassing the quota.
type quotaTable struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64
	buckets map[string]*tokenBucket
	// sweepAbove is the tenant count from which a new tenant first
	// sweeps the table; lastSweep is when it last did.
	sweepAbove int
	lastSweep  time.Time
	now        func() time.Time // test hook
}

// quotaSweepAbove bounds the tenants a quota table keeps between sweeps
// of idle ones.
const quotaSweepAbove = 1024

type tokenBucket struct {
	tokens float64
	last   time.Time
}

func newQuotaTable(rate float64, burst int) *quotaTable {
	if burst < 1 {
		burst = 1
	}
	return &quotaTable{
		rate:       rate,
		burst:      float64(burst),
		buckets:    map[string]*tokenBucket{},
		sweepAbove: quotaSweepAbove,
		now:        time.Now,
	}
}

// allow spends one token from the tenant's bucket. When the bucket is
// empty it reports the wait until a full token accrues.
func (q *quotaTable) allow(tenant string) (ok bool, retryAfter time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	b := q.buckets[tenant]
	if b == nil {
		q.sweep(now)
		b = &tokenBucket{tokens: q.burst, last: now}
		q.buckets[tenant] = b
	}
	b.tokens = math.Min(q.burst, b.tokens+now.Sub(b.last).Seconds()*q.rate)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / q.rate * float64(time.Second))
	return false, wait
}

// sweep forgets the tenants whose buckets have refilled to burst. Such
// a bucket answers exactly as a fresh one would, so no allow decision
// changes. It runs only from sweepAbove tenants on and at most once per
// refill period (burst/rate), so its cost is one pass over the table per
// period, and a client rotating X-Tenant grows the table only by the
// tenants it names within about two periods.
func (q *quotaTable) sweep(now time.Time) {
	if len(q.buckets) < q.sweepAbove || now.Sub(q.lastSweep).Seconds()*q.rate < q.burst {
		return
	}
	q.lastSweep = now
	for tenant, b := range q.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*q.rate >= q.burst {
			delete(q.buckets, tenant)
		}
	}
}

// retryAfterHeader rounds a wait up to whole seconds, minimum 1 — the
// header's unit.
func retryAfterHeader(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// gate wraps a client endpoint (/verify, /sweep) with the
// admission layer: per-tenant quota first (cheap, rejects abusive
// tenants before they consume an in-flight slot), then the global
// in-flight cap. Both shed load with 429 + Retry-After instead of
// queueing, so under overload the server stays responsive and clients
// hold the backoff state. /fleet/work is not gated: the worker admits
// units by the slots it advertises, which is the coordinator's credit.
func (s *server) gate(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.quotas != nil {
			if ok, retry := s.quotas.allow(r.Header.Get("X-Tenant")); !ok {
				s.metrics.shedInc("quota")
				w.Header().Set("Retry-After", retryAfterHeader(retry))
				httpError(w, http.StatusTooManyRequests, fmt.Errorf("tenant quota exhausted, retry in %s", retry.Round(time.Millisecond)))
				return
			}
		}
		if s.admit != nil {
			select {
			case s.admit <- struct{}{}:
				defer func() { <-s.admit }()
			default:
				s.metrics.shedInc("inflight")
				w.Header().Set("Retry-After", "1")
				httpError(w, http.StatusTooManyRequests, fmt.Errorf("server at capacity (%d requests in flight)", cap(s.admit)))
				return
			}
		}
		h(w, r)
	}
}
