// Package simclock provides the deterministic virtual-time substrate used by
// the testbed's accounting mode.
//
// The reproduction measures latency in simulated CPU cycles rather than wall
// clock so that every figure and table is reproducible on any machine. A
// Clock converts cycles to durations at a fixed frequency (the paper's Xeon
// Silver 4314 runs at 2.40 GHz), an Account accumulates the cycles charged
// along one request path, a Jitter source adds seeded, reproducible
// measurement noise so that distributions have realistic quartile spreads,
// and a Call carries one request's account, stamps and streams on its
// context under a single key.
package simclock

import (
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

// Account accumulates the cycles charged along a single request path and
// the boundary events counted on it (Events.Count). It is safe for
// concurrent use; a request that fans out across goroutines may share one
// Account. The zero value is ready to use, and a nil Account is no
// request's: it charges nothing and totals 0.
type Account struct {
	cycles atomic.Uint64
	events Events
}

// Charge adds n cycles to the account.
func (a *Account) Charge(n Cycles) {
	if a != nil {
		a.cycles.Add(uint64(n))
	}
}

// Total reports the cycles charged so far.
func (a *Account) Total() Cycles {
	if a == nil {
		return 0
	}
	return Cycles(a.cycles.Load())
}

// Counts reports the boundary events counted on the account so far.
func (a *Account) Counts() Counts {
	if a == nil {
		return Counts{}
	}
	return a.events.Load()
}

// Event is one kind of boundary event a runtime counts: the SGX operations
// of the paper's Table III and a confidential VM's exits.
type Event uint8

// The events, one fixed set for every runtime. An SGX AEX is always
// followed by its ERESUME, so AEX counts both.
const (
	EENTER Event = iota
	EEXIT
	ECALL
	OCALL
	AEX
	// EPCFault is an enclave page fault; the AEX it takes is counted too.
	EPCFault
	// VMExit is a confidential VM's exit to the hypervisor.
	VMExit
	numEvents
)

// Counts is a snapshot of event counts, indexed by Event.
type Counts [numEvents]uint64

// Sub returns c - prev, event by event.
func (c Counts) Sub(prev Counts) Counts {
	for i := range c {
		c[i] -= prev[i]
	}
	return c
}

// Add returns c + o, event by event.
func (c Counts) Add(o Counts) Counts {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

// Events is one sink of event counters, safe for concurrent use: a
// runtime's own (an enclave's, a guest process's) and every Account's.
type Events [numEvents]atomic.Uint64

// Count is the one way a boundary event is counted, where it is charged:
// n events of each of evs go to the counting runtime's sink e and to the
// account of the request that pays for them. A nil account is no
// request's.
func (e *Events) Count(acct *Account, n uint64, evs ...Event) {
	for _, ev := range evs {
		e[ev].Add(n)
		if acct != nil {
			acct.events[ev].Add(n)
		}
	}
}

// Load snapshots the counters.
func (e *Events) Load() (c Counts) {
	for i := range c {
		c[i] = e[i].Load()
	}
	return c
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
