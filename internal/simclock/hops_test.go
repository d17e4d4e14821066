package simclock

import (
	"context"
	"testing"

	"shield5g/internal/race"
)

// TestHopsRecordDepthAndDelta: each hop records its depth, kind and site,
// and the account's Δ cycles and counts across it, its nested hops'
// included; a context without a record yields the zero mark, which closes
// nothing.
func TestHopsRecordDepthAndDelta(t *testing.T) {
	var h Hops
	ctx, acct, own := Pin(recording(&h))
	defer own.Release()
	acct.Charge(7) // before any hop: charged outside every hop

	outer := EnterHop(ctx, Post, "/a", 0)
	acct.Charge(10)
	inner := EnterHop(ctx, Cross, "eudm-paka", 0x1f)
	acct.Charge(5)
	var enclave Events
	enclave.Count(acct, 1, EENTER)
	inner.Leave()
	outer.Leave()
	EnterHop(ctx, Radio, "", 0).Leave()

	want := []Hop{
		{Depth: 0, Kind: Post, Site: "/a", Cycles: 15, Counts: Counts{EENTER: 1}},
		{Depth: 1, Kind: Cross, Phases: 0x1f, Site: "eudm-paka", Cycles: 5, Counts: Counts{EENTER: 1}},
		{Depth: 0, Kind: Radio},
	}
	got := h.Hops()
	if len(got) != len(want) || h.Overflow() != 0 {
		t.Fatalf("recorded %d hops (%d overflowed), want %d: %+v", len(got), h.Overflow(), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("hop %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if m := EnterHop(context.Background(), Post, "/a", 0); m != (HopMark{}) {
		t.Fatalf("a context without a record opened a hop: %+v", m)
	}
	HopMark{}.Leave()
}

// TestHopsOverflowIsCounted: a hop past HopCapacity is not recorded but
// counted, and the record's depth stays balanced across it.
func TestHopsOverflowIsCounted(t *testing.T) {
	var h Hops
	ctx := recording(&h)
	for range HopCapacity + 3 {
		EnterHop(ctx, Serve, "udm", 0).Leave()
	}
	if n, over := len(h.Hops()), h.Overflow(); n != HopCapacity || over != 3 {
		t.Fatalf("recorded %d hops with %d overflowed, want %d and 3", n, over, HopCapacity)
	}
	if h.depth != 0 {
		t.Fatalf("depth %d after balanced hops, want 0", h.depth)
	}
}

// TestChildCallsInheritTheRecord: Derive, Pin and NewCall below a
// recording context record into the same record.
func TestChildCallsInheritTheRecord(t *testing.T) {
	var h Hops
	ctx := recording(&h)
	derived := Derive(ctx)
	defer derived.Release()
	pinned, _, own := Pin(ctx)
	defer own.Release()
	wrapped, cancel := context.WithCancel(NewCall(ctx))
	defer cancel()
	for _, c := range []context.Context{derived, pinned, wrapped} {
		EnterHop(c, Radio, "", 0).Leave()
	}
	if n := len(h.Hops()); n != 3 {
		t.Fatalf("children recorded %d hops, want 3", n)
	}
}

// TestHopsAllocateNothing: entering and leaving hops on a recording
// context, as every site does, costs no allocation. Skipped under -race.
func TestHopsAllocateNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	var h Hops
	ctx, acct, own := Pin(recording(&h))
	defer own.Release()
	site := func(kind HopKind, site string) {
		defer EnterHop(ctx, kind, site, 0).Leave()
		acct.Charge(1)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		site(Post, "/nausf-auth/v1/ue-authentications")
		site(Cross, "eausf-paka")
	}); allocs != 0 {
		t.Fatalf("a recorded hop allocates %.1f, want 0", allocs)
	}
	if h.Overflow() == 0 {
		t.Fatal("the run did not fill the record past capacity; the overflow path went unmeasured")
	}
}

// recording returns a context whose hops are recorded into h.
func recording(h *Hops) *Call {
	c := NewCall(context.Background())
	c.Hops = h
	return c
}
