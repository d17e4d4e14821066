package costmodel

import (
	"context"
	"testing"

	"shield5g/internal/race"
	"shield5g/internal/simclock"
)

// TestChargeWithoutAccount: a charge on a context that carries no account
// advances the clock by exactly n, charges no request and is counted in
// Unbooked — there is no account to allocate, so it allocates nothing.
// Allocation counts are skipped under -race.
func TestChargeWithoutAccount(t *testing.T) {
	e := NewEnv(nil, 1)
	ctx := context.Background()
	before := e.Clock.Elapsed()
	e.Charge(ctx, 1234)
	if got := e.Clock.Elapsed() - before; got != 1234 {
		t.Fatalf("clock advanced %d cycles, want 1234", got)
	}
	if got := e.Unbooked(); got != 1234 {
		t.Fatalf("Unbooked = %d, want 1234", got)
	}
	if race.Enabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() { e.Charge(ctx, 1) }); n != 0 {
		t.Fatalf("a charge with no account allocates %v, want 0", n)
	}
}

// TestChargeToAccount: the same charge on a context with an account lands
// on it, cycle for cycle with the clock, is not counted in Unbooked and
// allocates nothing.
func TestChargeToAccount(t *testing.T) {
	e := NewEnv(nil, 1)
	var a simclock.Account
	ctx := simclock.WithAccount(context.Background(), &a)
	before := e.Clock.Elapsed()
	e.Charge(ctx, 77)
	if a.Total() != 77 || e.Clock.Elapsed()-before != 77 {
		t.Fatalf("account %d, clock +%d; want 77 and 77", a.Total(), e.Clock.Elapsed()-before)
	}
	if got := e.Unbooked(); got != 0 {
		t.Fatalf("Unbooked = %d after an accounted charge, want 0", got)
	}
	if race.Enabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() { e.Charge(ctx, 1) }); n != 0 {
		t.Fatalf("a charge to an account allocates %v, want 0", n)
	}
}
