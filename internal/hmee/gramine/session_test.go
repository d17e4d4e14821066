package gramine

import (
	"context"
	"errors"
	"sync"
	"testing"

	"shield5g/internal/hmee"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/simclock"
)

func launchTest(t *testing.T) *Instance {
	t.Helper()
	inst, err := Launch(context.Background(), testPlatform(t), testShielded(t))
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	t.Cleanup(func() { inst.Shutdown(context.Background()) })
	return inst
}

// noop and compute are the handlers most tests serve: nothing, or n cycles
// of in-enclave work.
var noop = hmee.HandlerFunc(func(hmee.Exec) error { return nil })

// cross runs one connection phase (hmee.Open, hmee.Close) that carries
// no request.
func cross(ctx context.Context, c hmee.Crossing, ph hmee.Phases) error {
	_, err := c.Cross(ctx, ph, 0, 0, nil)
	return err
}

func compute(n simclock.Cycles) hmee.Handler {
	return hmee.HandlerFunc(func(ex hmee.Exec) error { ex.Compute(n); return nil })
}

// measuredCtx returns a ctx carrying a dedicated account and a fresh
// jitter stream from the given seed, so two requests on different
// instances make bit-identical stochastic draws.
func measuredCtx(seed uint64) (context.Context, *simclock.Account) {
	acct := &simclock.Account{}
	ctx := simclock.WithAccount(context.Background(), acct)
	ctx = simclock.WithJitter(ctx, simclock.NewJitter(seed))
	return ctx, acct
}

// TestServeOnSessionGoldenBatchOfOne pins the amortization contract: a
// warm request served on a keep-alive session is bit-identical to a warm
// ServeRequest in its L_F and L_T windows, and its account omits exactly
// the Pre+Post machinery (81 proxied syscalls at 16 bytes each
// way under the default profile), nothing more.
func TestServeOnSessionGoldenBatchOfOne(t *testing.T) {
	instA := launchTest(t)
	instB := launchTest(t)

	handler := hmee.HandlerFunc(func(th hmee.Exec) error {
		th.Compute(150_000)
		th.Touch(4096)
		return nil
	})

	// Warm both instances so neither measured request pays the lazy
	// warm-up; B's session also absorbs the per-connection handshake.
	if _, err := instA.Cross(context.Background(), hmee.OneShot, 40, 80, handler); err != nil {
		t.Fatalf("warm one-shot: %v", err)
	}
	if err := cross(context.Background(), instB, hmee.Open); err != nil {
		t.Fatalf("open: %v", err)
	}

	ctxA, acctA := measuredCtx(99)
	bdA, err := instA.Cross(ctxA, hmee.OneShot, 40, 80, handler)
	if err != nil {
		t.Fatalf("measured one-shot: %v", err)
	}
	ctxB, acctB := measuredCtx(99)
	bdB, err := instB.Cross(ctxB, hmee.Pipelined, 40, 80, handler)
	if err != nil {
		t.Fatalf("measured pipelined request: %v", err)
	}

	if bdA.Functional != bdB.Functional {
		t.Errorf("Functional: Serve %d != session %d", bdA.Functional, bdB.Functional)
	}
	if bdA.Total != bdB.Total {
		t.Errorf("Total: Serve %d != session %d", bdA.Total, bdB.Total)
	}

	m := instA.platform.Env().Model
	sp := instA.syscalls
	perOCall := m.OCALLRoundTrip() + m.SyscallNative + 2*m.ShieldCost(16)
	wantDelta := simclock.Cycles(sp.Pre+sp.Post) * perOCall
	if got := acctA.Total() - acctB.Total(); got != wantDelta {
		t.Errorf("server-side delta = %d, want exactly Pre+Post machinery %d", got, wantDelta)
	}
}

// TestSessionAmortizesTransitions checks the headline effect: a batch of
// pipelined requests makes far fewer enclave transitions than the same
// batch served cold, and each pipelined request stays within the
// non-amortized census (Read+InHandler+Write plus 0–2 readiness
// wake-ups).
func TestSessionAmortizesTransitions(t *testing.T) {
	inst := launchTest(t)
	ctx := context.Background()
	handler := compute(100_000)
	if _, err := inst.Cross(ctx, hmee.OneShot, 40, 80, handler); err != nil {
		t.Fatalf("warm: %v", err)
	}

	const batch = 8
	before := inst.Stats()
	for k := 0; k < batch; k++ {
		if _, err := inst.Cross(ctx, hmee.OneShot, 40, 80, handler); err != nil {
			t.Fatalf("Serve %d: %v", k, err)
		}
	}
	cold := inst.Stats().Sub(before).EENTER

	if err := cross(ctx, inst, hmee.Open); err != nil {
		t.Fatalf("open: %v", err)
	}
	before = inst.Stats()
	for k := 0; k < batch; k++ {
		reqBefore := inst.Stats()
		if _, err := inst.Cross(ctx, hmee.Pipelined, 40, 80, handler); err != nil {
			t.Fatalf("Serve %d: %v", k, err)
		}
		sp := inst.syscalls
		perReq := inst.Stats().Sub(reqBefore).EENTER
		min := uint64(sp.Read + sp.InHandler + sp.Write)
		if perReq < min || perReq > min+2 {
			t.Fatalf("session request %d made %d EENTERs, want %d..%d", k, perReq, min, min+2)
		}
	}
	pipelined := inst.Stats().Sub(before).EENTER
	if err := cross(ctx, inst, hmee.Close); err != nil {
		t.Fatalf("close: %v", err)
	}
	withTeardown := inst.Stats().Sub(before).EENTER

	if float64(withTeardown) > 0.6*float64(cold) {
		t.Errorf("batch of %d: %d transitions on session (+teardown) vs %d cold; want ≥40%% reduction",
			batch, withTeardown, cold)
	}
	t.Logf("batch=%d cold=%d session=%d (+close=%d)", batch, cold, pipelined, withTeardown)
}

// TestRingTakesEveryPhasedCrossing states the rule the deployment sets:
// an instance launched with a ring submits every crossing that charges
// part of the server path — a one-shot, a session's accept, pipelined
// requests and teardown, a batch Entry — through it, one submission each
// at no more than the doorbell's EENTER; a classic instance never touches
// a ring and pays its transitions. Nothing on ctx chooses. A maintenance
// crossing (no phase) runs in place on the resident thread on both, its
// OCALL a classic transition pair.
func TestRingTakesEveryPhasedCrossing(t *testing.T) {
	for _, crossing := range []string{"classic", "ring"} {
		t.Run(crossing, func(t *testing.T) {
			inst := censusInstance(t, crossing)
			ring := inst.ring != nil
			ctx := context.Background()
			if _, err := inst.Cross(ctx, hmee.OneShot, 40, 80, noop); err != nil {
				t.Fatalf("warm: %v", err)
			}

			// step runs one crossing and checks how it went over the boundary.
			step := func(name string, phased bool, f func() error) {
				t.Helper()
				before, ringBefore := inst.Stats(), inst.RingStats()
				if err := f(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				d, submitted := inst.Stats().Sub(before), inst.RingStats().Submitted-ringBefore.Submitted
				switch {
				case ring && phased && (submitted != 1 || d.EENTER > 1):
					t.Errorf("%s: %d ring submissions, %d EENTERs; want 1 and at most the doorbell", name, submitted, d.EENTER)
				case !ring && phased && (submitted != 0 || d.EENTER == 0):
					t.Errorf("%s: %d ring submissions, %d EENTERs; want 0 and classic transitions", name, submitted, d.EENTER)
				case !phased && (submitted != 0 || d.OCALLs != 1 || d.EENTER != 1):
					t.Errorf("maintenance: %d ring submissions, %d EENTERs for %d OCALLs; want 0 and one transition pair in place", submitted, d.EENTER, d.OCALLs)
				}
			}
			serve := func() error { _, err := inst.Cross(ctx, hmee.Pipelined, 40, 80, noop); return err }
			step("oneshot", true, func() error { _, err := inst.Cross(ctx, hmee.OneShot, 40, 80, noop); return err })
			step("open", true, func() error { return cross(ctx, inst, hmee.Open) })
			step("first pipelined", true, serve)
			step("second pipelined", true, serve)
			step("close", true, func() error { return cross(ctx, inst, hmee.Close) })
			step("batch", true, func() error { _, err := inst.Cross(ctx, hmee.Entry, 320, 640, noop); return err })
			step("maintenance", false, func() error {
				_, err := inst.Cross(ctx, 0, 0, 0, hmee.HandlerFunc(func(ex hmee.Exec) error {
					ex.(*sgx.Thread).OCallN(1, 1_000, 16, 16)
					return nil
				}))
				return err
			})
		})
	}
}

// TestSessionClosedAndLifecycleErrors: a keep-alive connection's phases
// serve while the instance runs, and every one of them fails with
// hmee.ErrStopped once it has shut down — the connection died with it.
func TestSessionClosedAndLifecycleErrors(t *testing.T) {
	inst := launchTest(t)
	ctx := context.Background()
	if err := cross(ctx, inst, hmee.Open); err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := inst.Cross(ctx, hmee.Pipelined, 10, 10, noop); err != nil {
		t.Fatalf("pipelined: %v", err)
	}
	inst.Shutdown(context.Background())
	if _, err := inst.Cross(ctx, hmee.Pipelined, 10, 10, noop); !errors.Is(err, hmee.ErrStopped) {
		t.Fatalf("pipelined after Shutdown = %v, want hmee.ErrStopped", err)
	}
	for _, ph := range []hmee.Phases{hmee.Close, hmee.Open} {
		if err := cross(ctx, inst, ph); !errors.Is(err, hmee.ErrStopped) {
			t.Fatalf("phases %b after Shutdown = %v, want hmee.ErrStopped", ph, err)
		}
	}
}

// TestDoPinsCallerAccount: maintenance work (a crossing of no phase) is
// charged to the caller's account, same as a served request.
func TestDoPinsCallerAccount(t *testing.T) {
	inst := launchTest(t)
	acct := &simclock.Account{}
	ctx := simclock.WithAccount(context.Background(), acct)
	before := inst.Stats()
	_, err := inst.Cross(ctx, 0, 0, 0, hmee.HandlerFunc(func(ex hmee.Exec) error {
		ex.Compute(250_000)
		ex.(*sgx.Thread).OCallN(1, 1_000, 16, 16)
		return nil
	}))
	if err != nil {
		t.Fatalf("maintenance crossing: %v", err)
	}
	if d := inst.Stats().Sub(before); d.OCALLs != 1 {
		t.Fatalf("maintenance OCALL delta = %d, want 1", d.OCALLs)
	}
	if acct.Total() < 250_000 {
		t.Fatalf("caller account charged %d cycles, want ≥ the 250k compute", acct.Total())
	}
}

// TestDoBatchOneTransitionPair pins the batch-ECALL contract: K units of
// work inside one hmee.Entry crossing cost K× the compute but exactly one
// EENTER/EEXIT pair (plus whatever OCALLs the body itself makes — none
// here).
func TestDoBatchOneTransitionPair(t *testing.T) {
	mf := DefaultManifest("/app/eudm-aka")
	mf.MaxThreads = HelperThreads + 2 // spare TCS slot for the batch entry
	si, err := BuildShielded(testImage(), mf, testSignKey(t))
	if err != nil {
		t.Fatalf("BuildShielded: %v", err)
	}
	inst, err := Launch(context.Background(), testPlatform(t), si)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer inst.Shutdown(context.Background())

	acct := &simclock.Account{}
	ctx := simclock.WithAccount(context.Background(), acct)
	before := inst.Stats()
	const k = 16
	_, err = inst.Cross(ctx, hmee.Entry, k*64, k*128, hmee.HandlerFunc(func(th hmee.Exec) error {
		for j := 0; j < k; j++ {
			th.Compute(50_000)
		}
		return nil
	}))
	if err != nil {
		t.Fatalf("batch crossing: %v", err)
	}
	d := inst.Stats().Sub(before)
	if d.EENTER != 1 || d.EEXIT != 1 {
		t.Fatalf("batch transitions = EENTER %d / EEXIT %d, want 1/1", d.EENTER, d.EEXIT)
	}
	if acct.Total() < k*50_000 {
		t.Fatalf("batch charged %d cycles to caller, want ≥ %d", acct.Total(), k*50_000)
	}

	inst.Shutdown(context.Background())
	if _, err := inst.Cross(ctx, hmee.Entry, 1, 1, noop); !errors.Is(err, hmee.ErrStopped) {
		t.Fatalf("batch crossing after Shutdown = %v, want hmee.ErrStopped", err)
	}
}

// TestServeShutdownRace shuts an instance down under concurrent requests on
// every crossing (run under -race) — the gramine twin of paka's
// TestNativeRuntimeServeShutdownRace, and what a chaos crash-restart does to
// a module with requests in flight. Every request must finish cleanly or
// fail with hmee.ErrStopped: never a panic, a torn teardown or a data race.
func TestServeShutdownRace(t *testing.T) {
	crossings := []struct {
		name string
		ring bool
		work func(ctx context.Context, inst *Instance) error
	}{
		{"oneshot", false, func(ctx context.Context, inst *Instance) error {
			_, err := inst.Cross(ctx, hmee.OneShot, 40, 80, compute(10_000))
			return err
		}},
		{"session", false, func(ctx context.Context, inst *Instance) error {
			err := cross(ctx, inst, hmee.Open)
			for k := 0; k < 3 && err == nil; k++ {
				_, err = inst.Cross(ctx, hmee.Pipelined, 40, 80, compute(10_000))
			}
			if err == nil {
				err = cross(ctx, inst, hmee.Close)
			}
			return err
		}},
		{"ring", true, func(ctx context.Context, inst *Instance) error {
			err := cross(ctx, inst, hmee.Open)
			if err == nil {
				_, err = inst.Cross(ctx, hmee.Pipelined, 40, 80, compute(10_000))
			}
			if err == nil {
				_, err = inst.Cross(ctx, hmee.Entry, 64, 128, compute(10_000))
			}
			if err == nil {
				_, err = inst.Cross(ctx, hmee.OneShot, 40, 80, compute(10_000))
			}
			if err == nil {
				err = cross(ctx, inst, hmee.Close)
			}
			return err
		}},
	}
	// The window is a request admitted just before Shutdown flips the
	// lifecycle; enough rounds that a racy teardown cannot slip through.
	const rounds, workers = 100, 4
	for _, c := range crossings {
		t.Run(c.name, func(t *testing.T) {
			crossing := "classic"
			if c.ring {
				crossing = "ring"
			}
			for round := 0; round < rounds && !t.Failed(); round++ {
				inst := censusInstance(t, crossing)

				var wg sync.WaitGroup
				started := make(chan struct{}, workers)
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						ctx := simclock.WithJitter(context.Background(), simclock.NewJitter(uint64(w)+1))
						for first := true; ; first = false {
							err := c.work(ctx, inst)
							if first {
								started <- struct{}{}
							}
							if errors.Is(err, hmee.ErrStopped) {
								return
							}
							if err != nil {
								t.Errorf("worker %d: %v, want nil or hmee.ErrStopped", w, err)
								return
							}
						}
					}(w)
				}
				for w := 0; w < workers; w++ {
					<-started
				}
				inst.Shutdown(context.Background())
				wg.Wait()

				if _, err := inst.Cross(context.Background(), hmee.OneShot, 10, 10, noop); !errors.Is(err, hmee.ErrStopped) {
					t.Fatalf("one-shot after Shutdown = %v, want hmee.ErrStopped", err)
				}
				if st := inst.RingStats(); st.Submitted != st.Completed+st.Drained {
					t.Fatalf("ring lost a request: %+v", st)
				}
			}
		})
	}
}
