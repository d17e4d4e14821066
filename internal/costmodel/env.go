package costmodel

import (
	"context"

	"shield5g/internal/simclock"
)

// Env is one timing domain: the cost model, the virtual clock its charges
// advance and the jitter source its draws come from. All parts of one
// simulated testbed share a single Env so their time bases agree; an SGX
// platform holds a second instance of its own, because its clock is the
// uptime that drives AEX and its jitter is a separate seeded stream (see
// DESIGN.md §5).
type Env struct {
	Model  *Model
	Clock  *simclock.Clock
	Jitter *simclock.Jitter
}

// NewEnv builds an Env over the model with a deterministic jitter seed.
// A nil model selects Default().
func NewEnv(m *Model, seed uint64) *Env {
	if m == nil {
		m = Default()
	}
	return &Env{
		Model:  m,
		Clock:  simclock.New(m.FrequencyHz),
		Jitter: simclock.NewJitter(seed),
	}
}

// ChargeTo is the one place a cycle is charged: n cycles go to acct (nil
// charges no request) and the env's clock advances by as much.
func (e *Env) ChargeTo(acct *simclock.Account, n simclock.Cycles) {
	if acct != nil {
		acct.Charge(n)
	}
	e.Clock.Advance(n)
}

// Charge is ChargeTo for the request account in ctx.
func (e *Env) Charge(ctx context.Context, n simclock.Cycles) {
	e.ChargeTo(simclock.AccountFrom(ctx), n)
}

// JitterFor returns the jitter source for the request in ctx: the
// per-worker stream when the parallel driver attached one, otherwise the
// env's shared root source (the sequential path, whose draw order must
// stay identical to the seed implementation).
func (e *Env) JitterFor(ctx context.Context) *simclock.Jitter {
	return simclock.JitterFrom(ctx, e.Jitter)
}
