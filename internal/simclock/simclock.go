// Package simclock provides the deterministic virtual-time substrate used by
// the testbed's accounting mode.
//
// The reproduction measures latency in simulated CPU cycles rather than wall
// clock so that every figure and table is reproducible on any machine. A
// Clock converts cycles to durations at a fixed frequency (the paper's Xeon
// Silver 4314 runs at 2.40 GHz), an Account accumulates the cycles charged
// along one request path, and a Jitter source adds seeded, reproducible
// measurement noise so that distributions have realistic quartile spreads.
package simclock

import (
	"context"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Cycles counts virtual CPU cycles.
type Cycles uint64

// DefaultFrequencyHz is the clock rate of the paper's testbed CPU
// (Intel Xeon Silver 4314, 2.40 GHz).
const DefaultFrequencyHz = 2_400_000_000

// Duration converts a cycle count to a duration at the given CPU frequency.
func Duration(n Cycles, freqHz uint64) time.Duration {
	if freqHz == 0 {
		freqHz = DefaultFrequencyHz
	}
	// Split to avoid overflow for large cycle counts.
	sec := uint64(n) / freqHz
	rem := uint64(n) % freqHz
	return time.Duration(sec)*time.Second +
		time.Duration(float64(rem)/float64(freqHz)*float64(time.Second))
}

// FromDuration converts a duration to cycles at the given CPU frequency.
func FromDuration(d time.Duration, freqHz uint64) Cycles {
	if freqHz == 0 {
		freqHz = DefaultFrequencyHz
	}
	return Cycles(d.Seconds() * float64(freqHz))
}

// Clock is a virtual CPU clock. It tracks globally elapsed cycles for
// uptime-dependent effects (such as asynchronous enclave exits caused by
// timer interrupts). The zero value is not usable; construct with New.
type Clock struct {
	freqHz uint64

	elapsed atomic.Uint64
}

// New returns a Clock ticking at freqHz. A freqHz of zero selects
// DefaultFrequencyHz.
func New(freqHz uint64) *Clock {
	if freqHz == 0 {
		freqHz = DefaultFrequencyHz
	}
	return &Clock{freqHz: freqHz}
}

// FrequencyHz reports the clock frequency.
func (c *Clock) FrequencyHz() uint64 { return c.freqHz }

// Advance moves the clock forward by n cycles.
func (c *Clock) Advance(n Cycles) { c.elapsed.Add(uint64(n)) }

// AdvanceDuration moves the clock forward by the cycle-equivalent of d.
func (c *Clock) AdvanceDuration(d time.Duration) {
	c.Advance(FromDuration(d, c.freqHz))
}

// Elapsed reports the total cycles elapsed on the clock.
func (c *Clock) Elapsed() Cycles { return Cycles(c.elapsed.Load()) }

// Now reports the elapsed virtual time.
func (c *Clock) Now() time.Duration {
	return Duration(c.Elapsed(), c.freqHz)
}

// Account accumulates the cycles charged along a single request path. It is
// safe for concurrent use; a request that fans out across goroutines may
// share one Account. The zero value is ready to use.
type Account struct {
	cycles atomic.Uint64
}

// Charge adds n cycles to the account.
func (a *Account) Charge(n Cycles) { a.cycles.Add(uint64(n)) }

// Total reports the cycles charged so far.
func (a *Account) Total() Cycles { return Cycles(a.cycles.Load()) }

// Reset zeroes the account and returns the previous total.
func (a *Account) Reset() Cycles { return Cycles(a.cycles.Swap(0)) }

type accountKey struct{}

// WithAccount returns a context carrying the account. Costs charged by the
// simulated substrate flow to the account of the request being served.
// Re-attaching the account a context already carries (the
// WithAccount(ctx, AccountFrom(ctx)) propagation idiom) returns ctx
// unchanged instead of allocating a redundant wrapper.
func WithAccount(ctx context.Context, a *Account) context.Context {
	if existing, ok := ctx.Value(accountKey{}).(*Account); ok && existing == a {
		return ctx
	}
	return context.WithValue(ctx, accountKey{}, a)
}

// AccountFrom extracts the account from ctx. It returns a throwaway account
// when none is attached, so callers may charge unconditionally.
func AccountFrom(ctx context.Context) *Account {
	if a, ok := ctx.Value(accountKey{}).(*Account); ok && a != nil {
		return a
	}
	return &Account{}
}

// Jitter is a seeded source of reproducible measurement noise. It is safe
// for concurrent use, but concurrent callers interleave on one PCG
// sequence; use Stream to give each worker an independent, reproducible
// sequence instead.
type Jitter struct {
	seed uint64
	mu   sync.Mutex
	rng  *rand.Rand
}

// NewJitter returns a Jitter seeded deterministically from seed.
func NewJitter(seed uint64) *Jitter {
	return &Jitter{seed: seed, rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Stream derives an independent jitter source for worker i, keyed only by
// the root seed and i. Every (seed, i) pair always yields the same
// sequence regardless of how many draws other workers make, which is what
// keeps parallel mass-registration runs seed-reproducible: worker i's
// costs depend on its own stream, never on scheduling order. Stream 0 is
// distinct from the root sequence.
func (j *Jitter) Stream(i uint64) *Jitter {
	return NewJitter(splitmix64(j.seed ^ (i+1)*0x9e3779b97f4a7c15))
}

// splitmix64 is the SplitMix64 finaliser, used to decorrelate derived
// stream seeds from arithmetic structure in (seed, i).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

type arrivalKey struct{}

// WithArrival stamps ctx with the request's virtual arrival time (cycles on
// the shared clock's axis). Open-loop drivers — the signaling-storm driver
// in particular — assign arrival timestamps from a seeded plan instead of
// the closed-loop clock, which is what lets a 10x-overload arrival process
// outrun the simulated service rate deterministically: server-side load
// meters and admission-control token buckets read this timestamp, so
// backlog growth and bucket refill depend only on the plan, never on
// scheduling or wall time.
func WithArrival(ctx context.Context, at Cycles) context.Context {
	return context.WithValue(ctx, arrivalKey{}, at)
}

// ArrivalFrom extracts the virtual arrival timestamp from ctx. ok is false
// when the request carries none (closed-loop callers), in which case load
// meters fall back to the shared clock.
func ArrivalFrom(ctx context.Context) (Cycles, bool) {
	at, ok := ctx.Value(arrivalKey{}).(Cycles)
	return at, ok
}

type jitterKey struct{}

// WithJitter returns a context carrying a request-scoped jitter source.
// The parallel registration driver attaches one per-worker Stream so that
// all noise drawn along the request path is contention-free and
// reproducible per worker.
func WithJitter(ctx context.Context, j *Jitter) context.Context {
	return context.WithValue(ctx, jitterKey{}, j)
}

// JitterFrom extracts the request-scoped jitter from ctx, falling back to
// fallback when none is attached. The fallback path is the sequential
// mode: every component keeps drawing from the shared root source in the
// exact order the seed implementation did, so sequential figures stay
// bit-for-bit identical.
func JitterFrom(ctx context.Context, fallback *Jitter) *Jitter {
	if j, ok := ctx.Value(jitterKey{}).(*Jitter); ok && j != nil {
		return j
	}
	return fallback
}

// Scale multiplies n by a uniform factor in [1-frac, 1+frac].
func (j *Jitter) Scale(n Cycles, frac float64) Cycles {
	if frac <= 0 {
		return n
	}
	j.mu.Lock()
	f := 1 + frac*(2*j.rng.Float64()-1)
	j.mu.Unlock()
	if f < 0 {
		f = 0
	}
	return Cycles(float64(n) * f)
}

// LogNormal draws a log-normally distributed cycle count with the given
// median and shape parameter sigma. Latency distributions in the paper's
// box plots are right-skewed; a log-normal body reproduces that.
func (j *Jitter) LogNormal(median Cycles, sigma float64) Cycles {
	if sigma <= 0 {
		return median
	}
	j.mu.Lock()
	z := j.rng.NormFloat64()
	j.mu.Unlock()
	return Cycles(float64(median) * math.Exp(sigma*z))
}

// Poisson draws a Poisson-distributed count with the given mean. It is used
// for rare-event counts such as EPC page faults per request.
func (j *Jitter) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	// Knuth's method is fine for the small lambdas used here; fall back to
	// a normal approximation for large means.
	if lambda > 64 {
		j.mu.Lock()
		z := j.rng.NormFloat64()
		j.mu.Unlock()
		n := int(lambda + math.Sqrt(lambda)*z + 0.5)
		if n < 0 {
			n = 0
		}
		return n
	}
	limit := math.Exp(-lambda)
	j.mu.Lock()
	defer j.mu.Unlock()
	p, n := 1.0, 0
	for {
		p *= j.rng.Float64()
		if p <= limit {
			return n
		}
		n++
	}
}

// Uint64n draws a uniform integer in [0, n).
func (j *Jitter) Uint64n(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rng.Uint64N(n)
}

// Float64 draws a uniform float in [0, 1).
func (j *Jitter) Float64() float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rng.Float64()
}
