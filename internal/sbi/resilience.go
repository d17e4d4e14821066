package sbi

import (
	"context"
	"sync/atomic"
	"time"

	"shield5g/internal/costmodel"
	"shield5g/internal/lockrank"
	"shield5g/internal/simclock"
)

// This file implements the SBI resilience layer of the robustness work:
// per-request virtual-time deadlines, a retry policy with exponential
// backoff and deterministic jitter that honours Retry-After/ProblemDetails
// cause semantics (TS 29.500 §6.4, §6.10), and a per-service circuit
// breaker with half-open probing. All waiting is charged to virtual time
// through the shared costmodel.Env, so runs stay seed-deterministic and
// wall-clock free.

// Retryable reports whether an SBI error may be retried. Per TS 29.500,
// congestion (429), transient unavailability (503), gateway timeouts
// (504) and internal server errors (500 SYSTEM_FAILURE) are transient;
// every other 4xx is a permanent protocol- or subscription-level failure
// that a retry cannot fix. Non-ProblemDetails errors (transport plumbing)
// are treated as transient.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	pd, ok := AsProblem(err)
	if !ok {
		return true
	}
	switch pd.Status {
	case 429, 500, 503, 504:
		return true
	default:
		return false
	}
}

// The one client policy every resilient invoker runs, after the TS 29.500
// client guidance: a handful of attempts with doubling, jittered backoff, a
// per-service breaker that trips on a burst of consecutive failures and
// probes again after a short cooldown, and one virtual deadline across all
// attempts of a request. Durations are virtual time.
const (
	maxAttempts    = 4 // total tries, the first included
	initialBackoff = 5 * time.Millisecond
	maxBackoff     = 500 * time.Millisecond
	backoffFactor  = 2
	// jitterFrac spreads each wait uniformly in [1-f, 1+f], drawn from
	// the request's deterministic jitter stream.
	jitterFrac = 0.2

	// breakerThreshold consecutive transient failures open a circuit;
	// breakerCooldown later it admits breakerProbes concurrent probes,
	// and that many successes close it again.
	breakerThreshold = 8
	breakerCooldown  = time.Second
	breakerProbes    = 2

	// requestDeadline is the virtual-time budget of one request across
	// all its attempts and backoff waits.
	requestDeadline = 10 * time.Second
)

// BreakerState is the circuit breaker state machine position.
type BreakerState int

// The classic three breaker states.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is a circuit breaker on the virtual clock: closed passes all
// requests; breakerThreshold consecutive transient failures open it; after
// breakerCooldown of virtual time it admits breakerProbes probes, which
// close it on success or re-open it on failure. The zero value is a
// closed breaker.
type Breaker struct {
	mu          lockrank.Mutex
	state       BreakerState
	consecFails int
	openedAt    time.Duration
	inFlight    int
	successes   int

	// Transition and probe counters (queryable via Stats): how often the
	// circuit opened, moved to half-open, closed again, how many half-open
	// probes were admitted, and how many requests the breaker rejected.
	opens     uint64
	halfOpens uint64
	closes    uint64
	probes    uint64
	rejected  uint64
}

// BreakerStats is a queryable snapshot of one breaker's state machine.
type BreakerStats struct {
	State     BreakerState
	Opens     uint64
	HalfOpens uint64
	Closes    uint64
	Probes    uint64
	Rejected  uint64
}

// Stats snapshots the breaker's transition counters.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStats{
		State:     b.state,
		Opens:     b.opens,
		HalfOpens: b.halfOpens,
		Closes:    b.closes,
		Probes:    b.probes,
		Rejected:  b.rejected,
	}
}

// merge accumulates another breaker's counters into s (state keeps the
// most-degraded of the two, open > half-open > closed).
func (s *BreakerStats) merge(o BreakerStats) {
	if o.State > s.State {
		s.State = o.State
	}
	s.Opens += o.Opens
	s.HalfOpens += o.HalfOpens
	s.Closes += o.Closes
	s.Probes += o.Probes
	s.Rejected += o.Rejected
}

// Allow asks to admit a request at virtual time now. When it returns
// false, retryAfter is the remaining cooldown (zero if half-open is merely
// saturated with probes). Every admitted request must be followed by
// exactly one OnSuccess or OnFailure.
func (b *Breaker) Allow(now time.Duration) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen {
		if now-b.openedAt < breakerCooldown {
			b.rejected++
			return false, breakerCooldown - (now - b.openedAt)
		}
		b.state = BreakerHalfOpen
		b.halfOpens++
		b.inFlight = 0
		b.successes = 0
	}
	if b.state == BreakerHalfOpen {
		if b.inFlight >= breakerProbes {
			b.rejected++
			return false, 0
		}
		b.inFlight++
		b.probes++
	}
	return true, 0
}

// OnSuccess records a successful admitted request.
func (b *Breaker) OnSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.consecFails = 0
	case BreakerHalfOpen:
		b.inFlight--
		b.successes++
		if b.successes >= breakerProbes {
			b.state = BreakerClosed
			b.closes++
			b.consecFails = 0
		}
	}
}

// OnFailure records a transient failure of an admitted request at virtual
// time now.
func (b *Breaker) OnFailure(now time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.consecFails++
		if b.consecFails >= breakerThreshold {
			b.state = BreakerOpen
			b.opens++
			b.openedAt = now
		}
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.opens++
		b.openedAt = now
	}
}

// ResilientClient wraps an Invoker with deadlines, retries and per-service
// circuit breakers. It is safe for concurrent use; breakers are shared
// across all requests of the wrapping client.
type ResilientClient struct {
	inner Invoker
	env   *costmodel.Env
	peers OCISource

	mu       lockrank.Mutex
	breakers map[string]*Breaker

	// Queryable retry-layer counters (see ResilienceStats).
	attempts          atomic.Uint64
	retries           atomic.Uint64
	throttled         atomic.Uint64
	retryAfterHonored atomic.Uint64
	deadlineHits      atomic.Uint64
}

// ResilienceStats aggregates the retry-layer and breaker counters of one
// or more resilient clients — the queryable view of behaviour that used
// to be invisible in experiment output.
type ResilienceStats struct {
	// Attempts counts dispatched attempts (including breaker-rejected
	// ones); Retries counts attempts beyond each request's first.
	Attempts uint64
	Retries  uint64
	// Throttled counts attempts deferred client-side in response to a
	// peer's advertised overload reduction.
	Throttled uint64
	// RetryAfterHonored counts backoff waits floored by a server's
	// Retry-After; DeadlineHits counts requests that exhausted their
	// virtual deadline budget.
	RetryAfterHonored uint64
	DeadlineHits      uint64
	// Breaker merges every per-service breaker's transition counters.
	Breaker BreakerStats
}

// Merge accumulates another client's stats into s.
func (s *ResilienceStats) Merge(o ResilienceStats) {
	s.Attempts += o.Attempts
	s.Retries += o.Retries
	s.Throttled += o.Throttled
	s.RetryAfterHonored += o.RetryAfterHonored
	s.DeadlineHits += o.DeadlineHits
	s.Breaker.merge(o.Breaker)
}

// Stats snapshots the client's retry counters plus the merged counters of
// all its per-service breakers.
func (r *ResilientClient) Stats() ResilienceStats {
	stats := ResilienceStats{
		Attempts:          r.attempts.Load(),
		Retries:           r.retries.Load(),
		Throttled:         r.throttled.Load(),
		RetryAfterHonored: r.retryAfterHonored.Load(),
		DeadlineHits:      r.deadlineHits.Load(),
	}
	r.mu.Lock()
	for _, b := range r.breakers {
		stats.Breaker.merge(b.Stats())
	}
	r.mu.Unlock()
	return stats
}

// NewResilient wraps inner in the client policy above. A non-nil peers
// (normally the base *Client, which records each peer's freshest overload
// advert) turns on client-side throttling: a non-emergency attempt is
// deferred with probability Reduction/100, drawn from the request's jitter
// stream, and waits at least the peer's Retry-After through the normal
// backoff path. Emergency-class requests are never throttled.
func NewResilient(inner Invoker, env *costmodel.Env, peers OCISource) *ResilientClient {
	return &ResilientClient{
		inner:    inner,
		env:      env,
		peers:    peers,
		breakers: make(map[string]*Breaker),
		mu:       lockrank.Mutex{Rank: lockrank.ResilientClient},
	}
}

// BreakerFor returns the (lazily created) breaker guarding service.
func (r *ResilientClient) BreakerFor(service string) *Breaker {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.breakers[service]
	if !ok {
		b = &Breaker{mu: lockrank.Mutex{Rank: lockrank.Breaker}}
		r.breakers[service] = b
	}
	return b
}

// Post implements Invoker: it drives attempts against the inner transport
// until success, a permanent error, retry exhaustion, or the virtual
// deadline. Backoff waits are charged to the request's account (and the
// shared clock), so retrying under faults shows up in setup-time figures.
// A request that carries no account is pinned one (simclock.Pin), so the
// attempts and waits charge the account the deadline reads.
func (r *ResilientClient) Post(ctx context.Context, service, path string, req, resp any) error {
	freq := r.env.Clock.FrequencyHz()
	ctx, acct, own := simclock.Pin(ctx)
	defer own.Release()
	start := acct.Total()
	budget := simclock.FromDuration(requestDeadline, freq)

	// Emergency-class requests never gate on the shared breaker: under a
	// storm, non-emergency failures would otherwise open the circuit and
	// take emergency traffic down with them.
	var br *Breaker
	if PriorityFrom(ctx) != PriorityEmergency {
		br = r.BreakerFor(service)
	}

	backoff := initialBackoff
	var lastErr error
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return Problem(504, "Gateway Timeout", CauseTimeout, "%s%s: %v", service, path, cerr)
		}
		if acct.Total()-start >= budget {
			r.deadlineHits.Add(1)
			return Problem(504, "Gateway Timeout", CauseTimeout,
				"%s%s: virtual deadline %v exceeded after %d attempt(s)", service, path, requestDeadline, attempt-1)
		}
		r.attempts.Add(1)
		if attempt > 1 {
			r.retries.Add(1)
		}

		var retryAfter time.Duration
		admitted := true
		if r.peers != nil && PriorityFrom(ctx) != PriorityEmergency {
			if oci, ok := r.peers.PeerOCI(service); ok && oci.Reduction > 0 &&
				r.env.JitterFor(ctx).Float64()*100 < float64(oci.Reduction) {
				// The peer asked for proportional shedding: defer this
				// attempt locally instead of dispatching it, and wait at
				// least the advertised Retry-After before trying again.
				admitted = false
				r.throttled.Add(1)
				lastErr = Problem(503, "Service Unavailable", CauseOverload,
					"%s%s: deferred locally, peer advertised %d%% reduction", service, path, oci.Reduction)
				retryAfter = oci.RetryAfter
			}
		}
		if admitted && br != nil {
			var cooldown time.Duration
			admitted, cooldown = br.Allow(r.env.Clock.Now())
			if !admitted {
				lastErr = Problem(503, "Service Unavailable", CauseCircuitOpen,
					"%s%s: circuit open", service, path)
				retryAfter = cooldown
			}
		}
		if admitted {
			lastErr = r.inner.Post(ctx, service, path, req, resp)
			if lastErr == nil {
				if br != nil {
					br.OnSuccess()
				}
				return nil
			}
			if !Retryable(lastErr) {
				// A definitive server answer: it does not trip the breaker
				// (the peer is alive) and must not be retried.
				if br != nil {
					br.OnSuccess()
				}
				return lastErr
			}
			if br != nil {
				br.OnFailure(r.env.Clock.Now())
			}
			if pd, ok := AsProblem(lastErr); ok && pd.RetryAfter > retryAfter {
				retryAfter = pd.RetryAfter
			}
		}

		if attempt >= maxAttempts {
			return lastErr
		}
		wait := simclock.FromDuration(backoff, freq)
		wait = r.env.JitterFor(ctx).Scale(wait, jitterFrac)
		if floor := simclock.FromDuration(retryAfter, freq); wait < floor {
			wait = floor
			r.retryAfterHonored.Add(1)
		}
		if spent := acct.Total() - start; spent+wait > budget {
			r.deadlineHits.Add(1)
			// Waiting would blow the budget: charge the remainder and
			// report the deadline instead of sleeping past it. The
			// attempt itself may already have overshot the budget (e.g.
			// a crash-triggered enclave reload), so guard the unsigned
			// subtraction.
			if spent < budget {
				r.env.ChargeTo(acct, budget-spent)
			}
			return Problem(504, "Gateway Timeout", CauseTimeout,
				"%s%s: virtual deadline %v exceeded after %d attempt(s): %v",
				service, path, requestDeadline, attempt, lastErr)
		}
		r.env.ChargeTo(acct, wait)
		backoff = min(backoff*backoffFactor, maxBackoff)
	}
}

// Compile-time conformance.
var _ Invoker = (*ResilientClient)(nil)
