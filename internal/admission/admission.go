// Package admission implements the priority admission controller that sits
// ahead of the shielded P-AKA enclave. A signaling storm must be cut down
// to bounded, prioritized goodput before any request reaches the expensive
// enclave boundary (TCS slots, AV pool): the AMF consults this controller
// on InitialUEMessage, strictly before the AUSF/P-AKA authentication call.
//
// The design follows the ROADMAP's TS 29.500 overload-control item with two
// hard invariants:
//
//   - Admission never enters the enclave. The decision is a local token
//     bucket lookup keyed by (source gNB, PLMN) — no SBI call, no
//     synchronous coordination step, no shared lock beyond the map mutex.
//   - Buckets refill on virtual time only. The refill axis is the request's
//     virtual arrival timestamp (simclock.WithArrival) when stamped, the
//     shared virtual clock otherwise — never the wall clock, which the
//     shieldlint determinism analyzer enforces.
//
// Three priority classes are recognised, most- to least-privileged:
// emergency registrations are always admitted (their configured rate is
// zero, meaning "no bucket"), re-registrations (GUTI-based re-attach after
// a mass disconnect) drain a generous bucket, and fresh SUCI attaches drain
// a tight one. Under 10x overload the storm therefore degrades to bounded
// queueing for the re-attach wave while emergency traffic stays untouched.
package admission

import (
	"context"
	"sync"
	"time"

	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
)

type sourceKey struct{}

// WithSource stamps ctx with the originating gNB's identity; the AMF
// combines it with the serving PLMN to key the per-source token buckets.
func WithSource(ctx context.Context, source string) context.Context {
	if existing, ok := ctx.Value(sourceKey{}).(string); ok && existing == source {
		return ctx
	}
	return context.WithValue(ctx, sourceKey{}, source)
}

// SourceFrom extracts the gNB source identity ("" when unstamped).
func SourceFrom(ctx context.Context) string {
	s, _ := ctx.Value(sourceKey{}).(string)
	return s
}

// Config tunes the controller. Rates are per-class token refill rates in
// requests per second of virtual time. A rate of zero means that class is
// never limited (used for emergency).
type Config struct {
	// Clock supplies the virtual-time fallback axis for unstamped
	// requests and the frequency for rate conversion. Required.
	Clock *simclock.Clock
	// Rates[class] is the sustained admission rate, requests/second.
	Rates [3]float64
}

// Bucket depths, in requests: the back-to-back arrivals one source's
// bucket absorbs before its class rate takes over. Emergency has no
// bucket: its rate stays zero.
const (
	freshBurst    = 12
	reattachBurst = 24
)

// bursts is the bucket depth per class.
var bursts = [3]float64{sbi.PriorityFresh: freshBurst, sbi.PriorityReattach: reattachBurst}

// DefaultConfig returns the storm-survival profile: emergency unlimited,
// re-attach generous, fresh attach tight. The rates are sized against the
// modelled UDM bottleneck (~650 registrations/second of virtual time at
// the default service cost): a 1x storm mix (35% fresh, 60% re-attach)
// passes untouched, while 10x overload is cut down in the buckets before
// any of it reaches the enclave.
func DefaultConfig(clock *simclock.Clock) Config {
	cfg := Config{Clock: clock}
	cfg.Rates[sbi.PriorityFresh] = 300
	cfg.Rates[sbi.PriorityReattach] = 550
	cfg.Rates[sbi.PriorityEmergency] = 0 // never limited
	return cfg
}

// Stats is a snapshot of the controller's per-class counters.
type Stats struct {
	Admitted [3]uint64
	Dropped  [3]uint64
	// Sources is the number of distinct (gNB, PLMN) keys seen.
	Sources int
}

// TotalDropped sums drops across classes.
func (s Stats) TotalDropped() uint64 {
	return s.Dropped[0] + s.Dropped[1] + s.Dropped[2]
}

// bucket is one token bucket on the virtual arrival axis.
type bucket struct {
	tokens float64
	last   simclock.Cycles
}

// sourceBuckets holds one bucket per limited class for one (gNB, PLMN) key.
type sourceBuckets struct {
	class [3]bucket
}

// Controller is the per-AMF admission controller. It is safe for
// concurrent use; the hot path takes one mutex, touches one map entry and
// does arithmetic — nothing else.
type Controller struct {
	cfg Config

	mu      sync.Mutex
	armed   bool
	sources map[string]*sourceBuckets

	admitted [3]uint64
	dropped  [3]uint64
}

// NewController builds a disarmed controller; Arm opens the storm window.
func NewController(cfg Config) *Controller {
	return &Controller{cfg: cfg, sources: make(map[string]*sourceBuckets)}
}

// SetArmed opens or closes the admission window. Disarmed (the default and
// the steady state outside storm experiments), Admit is a constant-time
// pass-through and adds no overhead to the registration hot path.
func (c *Controller) SetArmed(v bool) {
	c.mu.Lock()
	c.armed = v
	if !v {
		// Reset buckets so consecutive storm windows start identically.
		c.sources = make(map[string]*sourceBuckets)
	}
	c.mu.Unlock()
}

// Admit decides one request from the given source key (gNB id + PLMN) at
// its priority class. It returns nil to admit, or a 503 OVERLOAD
// ProblemDetails carrying the bucket's refill estimate as Retry-After. The
// refill axis is the request's virtual arrival stamp when present, the
// shared clock otherwise; time never comes from the wall.
func (c *Controller) Admit(ctx context.Context, source string, class sbi.Priority) error {
	if class < 0 || class >= 3 {
		class = sbi.PriorityFresh
	}
	rate := c.cfg.Rates[class]

	c.mu.Lock()
	if !c.armed || rate <= 0 {
		if c.armed {
			c.admitted[class]++
		}
		c.mu.Unlock()
		return nil
	}

	// Refill strictly on the arrival axis when the request is stamped: the
	// shared clock accrues every request's queue and backoff charges, so
	// under overload it races far ahead of the arrival process and would
	// refill buckets that the offered load should be draining. Unstamped
	// (closed-loop) requests fall back to the clock.
	now, stamped := simclock.ArrivalFrom(ctx)
	if !stamped {
		now = c.cfg.Clock.Elapsed()
	}

	sb, ok := c.sources[source]
	if !ok {
		sb = &sourceBuckets{}
		for cl := range sb.class {
			sb.class[cl] = bucket{tokens: bursts[cl], last: now}
		}
		c.sources[source] = sb
	}

	freq := float64(c.cfg.Clock.FrequencyHz())
	b := &sb.class[class]
	if now > b.last {
		b.tokens += float64(now-b.last) / freq * rate
		b.tokens = min(b.tokens, bursts[class])
	}
	b.last = now

	if b.tokens >= 1 {
		b.tokens--
		c.admitted[class]++
		c.mu.Unlock()
		return nil
	}

	// Refill estimate: virtual time until one whole token accrues.
	retryAfter := time.Duration((1 - b.tokens) / rate * float64(time.Second))
	c.dropped[class]++
	c.mu.Unlock()

	pd := sbi.Problem(503, "Service Unavailable", sbi.CauseOverload,
		"admission: %s-class registration from %s dropped, bucket empty", class, source)
	pd.RetryAfter = retryAfter
	return pd
}

// Stats snapshots the per-class counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Admitted: c.admitted, Dropped: c.dropped, Sources: len(c.sources)}
}
