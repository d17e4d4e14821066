package admission

import (
	"context"
	"testing"
	"time"

	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
)

// armed returns an armed controller on the production profile.
func armed(clock *simclock.Clock) *Controller {
	ctrl := NewController(DefaultConfig(clock))
	ctrl.SetArmed(true)
	return ctrl
}

// admitN admits n requests of class from source at ctx, failing the test
// on any drop.
func admitN(t *testing.T, ctrl *Controller, ctx context.Context, source string, class sbi.Priority, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := ctrl.Admit(ctx, source, class); err != nil {
			t.Fatalf("%s admit %d of %d from %s: %v", class, i+1, n, source, err)
		}
	}
}

// oneToken is a little more virtual time than one fresh-class token takes
// to accrue at the default 300/s, and less than two.
const oneToken = 4 * time.Millisecond

func TestDisarmedIsPassThrough(t *testing.T) {
	ctrl := NewController(DefaultConfig(simclock.New(0)))
	for i := 0; i < 1000; i++ {
		if err := ctrl.Admit(context.Background(), "gnb-1", sbi.PriorityFresh); err != nil {
			t.Fatalf("disarmed Admit rejected: %v", err)
		}
	}
	if st := ctrl.Stats(); st.Admitted[sbi.PriorityFresh] != 0 || st.TotalDropped() != 0 {
		t.Fatalf("disarmed controller counted traffic: %+v", st)
	}
}

// TestBurstThenDrop: at one instant a source's bucket admits exactly its
// class depth — 12 fresh attaches, 24 re-attaches — and drops the next
// arrival with a retryable 503 OVERLOAD carrying a Retry-After.
func TestBurstThenDrop(t *testing.T) {
	for _, c := range []struct {
		class sbi.Priority
		depth int
	}{{sbi.PriorityFresh, 12}, {sbi.PriorityReattach, 24}} {
		ctrl := armed(simclock.New(0))
		ctx := context.Background()
		admitN(t, ctrl, ctx, "gnb-1", c.class, c.depth)
		err := ctrl.Admit(ctx, "gnb-1", c.class)
		pd, ok := sbi.AsProblem(err)
		if !ok || pd.Status != 503 || pd.Cause != sbi.CauseOverload {
			t.Fatalf("%s over-burst admit: want 503 OVERLOAD, got %v", c.class, err)
		}
		if pd.RetryAfter <= 0 {
			t.Fatalf("%s drop carries no Retry-After: %+v", c.class, pd)
		}
		if !sbi.Retryable(err) {
			t.Fatalf("%s admission drop must classify as retryable", c.class)
		}
		st := ctrl.Stats()
		if st.Admitted[c.class] != uint64(c.depth) || st.Dropped[c.class] != 1 || st.TotalDropped() != 1 {
			t.Fatalf("%s counters: %+v", c.class, st)
		}
	}
}

func TestRefillOnVirtualTime(t *testing.T) {
	clock := simclock.New(0)
	ctrl := armed(clock)
	ctx := context.Background()

	admitN(t, ctrl, ctx, "gnb-1", sbi.PriorityFresh, freshBurst)
	if err := ctrl.Admit(ctx, "gnb-1", sbi.PriorityFresh); err == nil {
		t.Fatal("expected drop with empty bucket")
	}

	// Wall time does nothing — only advancing the virtual clock refills.
	clock.AdvanceDuration(oneToken)
	if err := ctrl.Admit(ctx, "gnb-1", sbi.PriorityFresh); err != nil {
		t.Fatalf("admit after virtual refill: %v", err)
	}
	if err := ctrl.Admit(ctx, "gnb-1", sbi.PriorityFresh); err == nil {
		t.Fatal("bucket should hold exactly the one refilled token")
	}
}

func TestArrivalAxisRefill(t *testing.T) {
	clock := simclock.New(0)
	ctrl := armed(clock)

	at := func(d time.Duration) context.Context {
		return simclock.WithArrival(context.Background(),
			simclock.FromDuration(d, clock.FrequencyHz()))
	}
	admitN(t, ctrl, at(0), "gnb-1", sbi.PriorityFresh, freshBurst)
	if err := ctrl.Admit(at(0), "gnb-1", sbi.PriorityFresh); err == nil {
		t.Fatal("expected drop at t=0")
	}
	// A later stamped arrival refills a token even though the shared clock
	// never moved: the plan owns time.
	if err := ctrl.Admit(at(oneToken), "gnb-1", sbi.PriorityFresh); err != nil {
		t.Fatalf("admit on stamped arrival: %v", err)
	}
}

func TestEmergencyNeverLimited(t *testing.T) {
	ctrl := armed(simclock.New(0))
	admitN(t, ctrl, context.Background(), "gnb-1", sbi.PriorityEmergency, 500)
	if st := ctrl.Stats(); st.Admitted[sbi.PriorityEmergency] != 500 {
		t.Fatalf("emergency admits: %+v", st)
	}
}

func TestPerSourceIsolation(t *testing.T) {
	ctrl := armed(simclock.New(0))
	ctx := context.Background()

	admitN(t, ctrl, ctx, "gnb-1", sbi.PriorityFresh, freshBurst)
	if err := ctrl.Admit(ctx, "gnb-1", sbi.PriorityFresh); err == nil {
		t.Fatal("gnb-1 should be exhausted")
	}
	// A different source key has its own buckets.
	if err := ctrl.Admit(ctx, "gnb-2", sbi.PriorityFresh); err != nil {
		t.Fatalf("gnb-2 must not share gnb-1's bucket: %v", err)
	}
	if st := ctrl.Stats(); st.Sources != 2 {
		t.Fatalf("want 2 sources, got %+v", st)
	}
}

func TestDisarmResetsBuckets(t *testing.T) {
	ctrl := armed(simclock.New(0))
	ctx := context.Background()
	for i := 0; i <= freshBurst; i++ {
		_ = ctrl.Admit(ctx, "gnb-1", sbi.PriorityFresh)
	}
	ctrl.SetArmed(false)
	ctrl.SetArmed(true)
	// Fresh window: full burst again.
	admitN(t, ctrl, ctx, "gnb-1", sbi.PriorityFresh, freshBurst)
}
