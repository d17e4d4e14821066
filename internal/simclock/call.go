package simclock

import (
	"context"
	"sync"
)

// Call is the one per-request carrier: every value the simulated substrate
// reads off a request's context rides in it, under one context key. It is
// a context.Context by embedding its parent, so cancellation, deadlines and
// any other key pass straight through; a context.WithCancel below a Call
// still finds the cancelCtx above it.
//
// A Call is a snapshot: a child starts with every value of the nearest
// Call above it and overrides what it stamps, so a reader looks at one
// struct, never a chain. The field types are this package's or primitive,
// which keeps simclock a leaf; the packages that give a field its meaning
// (sbi's Priority, paka's Connection, admission's source, chaos's decision
// stream) convert at their one reader.
//
// Ownership. A Call from Derive is pooled: the function that derives it
// releases it, with defer, once nothing below it still runs, and nothing
// may retain it (or a context built on it) past that return. A Call from
// NewCall, or from the With* builders, is an ordinary heap value for a
// context that lives as long as a worker or lane.
type Call struct {
	context.Context
	carried

	// own is the account Pin hands out, without an allocation of its own.
	own Account
}

// carried holds the values a child Call inherits from its parent.
type carried struct {
	// Account is charged every cycle the request costs; nil when none is
	// attached.
	Account *Account
	// Arrival is the request's virtual arrival time on the shared clock's
	// axis; Stamped is false for closed-loop requests, which carry none.
	Arrival Cycles
	Stamped bool
	// Jitter is the request's noise stream; nil draws from the env's root.
	Jitter *Jitter
	// Priority is the admission class (sbi.Priority); zero is fresh
	// attach.
	Priority uint8
	// ConnID and ConnBatch name the keep-alive connection to the P-AKA
	// modules (paka.Connection); a ConnBatch of zero is none.
	ConnID    uint64
	ConnBatch int
	// Source is the originating gNB's identity, the admission bucket key.
	Source string
	// Chaos is the worker's fault-decision stream; nil draws from the
	// injector's root.
	Chaos *Jitter
	// Hops is the procedure's hop record; nil records nothing. A caller
	// that records sets it on a NewCall (see Hops).
	Hops *Hops
}

type callKey struct{}

// Value answers the Call's own key with the Call and passes every other
// key to the parent.
func (c *Call) Value(key any) any {
	if key == (callKey{}) {
		return c
	}
	return c.Context.Value(key)
}

// CallFrom returns the Call ctx carries, nil when it carries none. The
// outermost context is almost always the Call itself, so the common case
// is one type assertion, which inlines into every reader; only a context
// wrapped around a Call walks (callBelow).
func CallFrom(ctx context.Context) *Call {
	if c, ok := ctx.(*Call); ok {
		return c
	}
	return callBelow(ctx)
}

// callBelow finds the Call below a context wrapped around one. It stays
// out of line so that CallFrom fits the inlining budget.
//
//go:noinline
func callBelow(ctx context.Context) *Call {
	c, _ := ctx.Value(callKey{}).(*Call)
	return c
}

// inherit makes c a child of ctx carrying the values of the nearest Call
// in ctx.
func (c *Call) inherit(ctx context.Context) {
	if p := CallFrom(ctx); p != nil {
		c.carried = p.carried
	}
	c.Context = ctx
}

// NewCall returns an unpooled child Call of ctx, for a context that
// outlives any one request.
func NewCall(ctx context.Context) *Call {
	c := new(Call)
	c.inherit(ctx)
	return c
}

var callPool = sync.Pool{New: func() any { return new(Call) }}

// Derive returns a pooled child Call of ctx for a hop that stamps a value
// on one request. The caller owns it and must Release it before returning.
func Derive(ctx context.Context) *Call {
	c := callPool.Get().(*Call)
	c.inherit(ctx)
	return c
}

// Release zeroes a Call from Derive and returns it to the pool. Nothing of
// the request stays in pooled memory (hashpool.PutHMAC's scrub rule), and a
// use after release dereferences a nil parent. Releasing nil (Pin's own
// when ctx carried an account) does nothing.
func (c *Call) Release() {
	if c == nil {
		return
	}
	*c = Call{}
	callPool.Put(c)
}

// WithAccount returns a context carrying the account. Costs charged by the
// simulated substrate flow to the account of the request being served.
// Re-attaching the account a context already carries (the
// WithAccount(ctx, AccountFrom(ctx)) propagation idiom) returns ctx
// unchanged instead of allocating a redundant Call.
func WithAccount(ctx context.Context, a *Account) context.Context {
	if p := CallFrom(ctx); p != nil && p.Account == a {
		return ctx
	}
	c := NewCall(ctx)
	c.Account = a
	return c
}

// AccountFrom extracts the account from ctx, nil when none is attached: a
// nil account charges nothing and totals 0, so callers may charge it
// unconditionally and the clock alone advances.
func AccountFrom(ctx context.Context) *Account {
	if c, ok := ctx.(*Call); ok {
		return c.Account
	}
	return accountBelow(ctx)
}

// accountBelow is AccountFrom's walk, out of line for the reason
// callBelow is.
//
//go:noinline
func accountBelow(ctx context.Context) *Account {
	if c := callBelow(ctx); c != nil {
		return c.Account
	}
	return nil
}

// Pin is the one way a step that reads its own total gets an account to
// read on a context without one: it returns ctx and the account ctx
// carries, or, when ctx carries none, a pooled child Call of ctx holding a
// fresh account of its own (a released Call is zeroed) as both the
// context and own. The account lives exactly as long as own. The caller
// releases own — nil when ctx carried an account — once nothing below it
// still runs.
func Pin(ctx context.Context) (pinned context.Context, acct *Account, own *Call) {
	if acct = AccountFrom(ctx); acct != nil {
		return ctx, acct, nil
	}
	own = Derive(ctx)
	own.Account = &own.own
	return own, own.Account, own
}

// Book is the one way a procedure learns what it cost: it runs fn on ctx
// pinned to an account (Pin) and returns the cycles and the boundary
// events fn charged to it — the delta of the account ctx carries, or the
// totals of a fresh one when ctx carries none. fn must not keep its
// context past its return.
func Book(ctx context.Context, fn func(context.Context) error) (Cycles, Counts, error) {
	ctx, acct, own := Pin(ctx)
	defer own.Release()
	start, counts := acct.Total(), acct.Counts()
	err := fn(ctx)
	return acct.Total() - start, acct.Counts().Sub(counts), err
}

// WithArrival stamps ctx with the request's virtual arrival time (cycles on
// the shared clock's axis). Open-loop drivers — the signaling-storm driver
// in particular — assign arrival timestamps from a seeded plan instead of
// the closed-loop clock, which is what lets a 10x-overload arrival process
// outrun the simulated service rate deterministically: server-side load
// meters and admission-control token buckets read this timestamp, so
// backlog growth and bucket refill depend only on the plan, never on
// scheduling or wall time.
func WithArrival(ctx context.Context, at Cycles) context.Context {
	c := NewCall(ctx)
	c.Arrival, c.Stamped = at, true
	return c
}

// ArrivalFrom extracts the virtual arrival timestamp from ctx. ok is false
// when the request carries none (closed-loop callers), in which case load
// meters fall back to the shared clock.
func ArrivalFrom(ctx context.Context) (Cycles, bool) {
	if c := CallFrom(ctx); c != nil {
		return c.Arrival, c.Stamped
	}
	return 0, false
}

// WithJitter returns a context carrying a request-scoped jitter source.
// The parallel registration driver attaches one per-worker Stream so that
// all noise drawn along the request path is contention-free and
// reproducible per worker.
func WithJitter(ctx context.Context, j *Jitter) context.Context {
	c := NewCall(ctx)
	c.Jitter = j
	return c
}

// JitterFrom extracts the request-scoped jitter from ctx, falling back to
// fallback when none is attached. The fallback path is the sequential
// mode: every component keeps drawing from the shared root source in the
// exact order the seed implementation did, so sequential figures stay
// bit-for-bit identical.
func JitterFrom(ctx context.Context, fallback *Jitter) *Jitter {
	if c := CallFrom(ctx); c != nil && c.Jitter != nil {
		return c.Jitter
	}
	return fallback
}
