package simclock

import (
	"context"
	"reflect"
	"testing"

	"shield5g/internal/race"
)

// TestCallInheritsAndOverrides: a child Call starts with every value of
// the nearest Call above it, overrides only what it stamps, and leaves its
// parent untouched.
func TestCallInheritsAndOverrides(t *testing.T) {
	var a Account
	j := NewJitter(1)
	lane := WithJitter(WithAccount(context.Background(), &a), j)
	parent := NewCall(lane)
	parent.ConnID, parent.ConnBatch, parent.Source = 3, 8, "gnb-1"

	child := Derive(parent)
	defer child.Release()
	child.Priority = 2
	child.Arrival, child.Stamped = 500, true

	if child.Account != &a || child.Jitter != j || child.ConnID != 3 || child.ConnBatch != 8 || child.Source != "gnb-1" {
		t.Fatalf("child lost an inherited value: %+v", child.carried)
	}
	if at, ok := ArrivalFrom(child); !ok || at != 500 || child.Priority != 2 {
		t.Fatalf("child stamps not read back: arrival %d/%v priority %d", at, ok, child.Priority)
	}
	if _, ok := ArrivalFrom(parent); ok || parent.Priority != 0 {
		t.Fatal("a child's stamp reached its parent")
	}
	if WithAccount(child, &a) != context.Context(child) {
		t.Fatal("re-attaching the carried account built a new Call")
	}
}

// TestCallUnderCancel: a Call passes every other key to its parent, so a
// context.WithCancel below it is cancelled with the cancelCtx above it,
// and CallFrom still finds the Call through the wrapper.
func TestCallUnderCancel(t *testing.T) {
	root, cancelRoot := context.WithCancel(context.Background())
	call := Derive(root)
	defer call.Release()
	call.Source = "gnb-7"
	below, cancelBelow := context.WithCancel(call)
	defer cancelBelow()

	if CallFrom(below) != call || CallFrom(call) != call {
		t.Fatal("CallFrom did not find the Call")
	}
	if CallFrom(context.Background()) != nil || CallFrom(root) != nil {
		t.Fatal("CallFrom found a Call in a context without one")
	}
	cancelRoot()
	select {
	case <-below.Done():
	default:
		t.Fatal("cancelling above the Call did not cancel the context below it")
	}
}

// TestReleasedCallIsZeroed: Release scrubs every value (hashpool.PutHMAC's
// rule), and a use after release reaches the nil parent and panics.
func TestReleasedCallIsZeroed(t *testing.T) {
	_, acct, call := Pin(WithArrival(context.Background(), 9))
	acct.Charge(5)
	call.Priority, call.Source, call.Chaos = 1, "gnb-2", NewJitter(2)
	call.Release()
	if !reflect.ValueOf(call).Elem().IsZero() {
		t.Fatalf("released Call is not zero: %+v", call.carried)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a released Call served Done")
		}
	}()
	call.Done()
}

// TestPooledCallAllocatesNothing: deriving a Call, stamping it with an
// account of its own and reading every value back through the accessors
// costs no allocation once the pool is warm. Skipped under -race.
func TestPooledCallAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	lane := WithJitter(context.Background(), NewJitter(3))
	hop := func() {
		_, acct, call := Pin(lane)
		defer call.Release()
		acct.Charge(1)
		call.Priority = 1
		AccountFrom(call).Charge(1)
		_ = JitterFrom(call, nil)
		_, _ = ArrivalFrom(call)
	}
	hop()
	if allocs := testing.AllocsPerRun(100, hop); allocs != 0 {
		t.Fatalf("a pooled Call hop allocates %.1f, want 0", allocs)
	}
}
