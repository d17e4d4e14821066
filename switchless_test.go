package shield5g_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"shield5g"
	"shield5g/internal/experiments"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/nf/udr"
	"shield5g/internal/race"
	"shield5g/internal/sbi"
	"shield5g/internal/sbi/codec"
)

// subscriberKey is the long-term key every test subscriber is provisioned
// with (TS 35.207 test set 1).
var subscriberKey = []byte{0x46, 0x5b, 0x5c, 0xe8, 0xb1, 0x99, 0xb4, 0x9f, 0xaa, 0x5f, 0x0a, 0x2e, 0xe2, 0x38, 0xa6, 0xbc}

// moduleWindow is one module's transition census over a measured mass
// registration, normalized per registration.
type moduleWindow struct {
	EEnterPerReg float64
	EExitPerReg  float64
	AEXPerReg    float64
	OCallsPerReg float64
}

// fastPathWindow is one measured mass registration: the per-module
// census plus the whole-slice figures the fast-path gates read.
type fastPathWindow struct {
	Module map[shield5g.ModuleKind]moduleWindow
	// TransPerReg is EENTER+EEXIT over all three modules per
	// registration; Virtual is the run's shared-clock advance;
	// AllocsPerReg is counted inside an experiments.AllocWindow.
	TransPerReg  float64
	Virtual      time.Duration
	AllocsPerReg float64
}

// switchlessWindow runs a steady-state batch-8 binary-SBI mass
// registration (100 UEs, warm chain, provisioning outside the window)
// and returns its census. With avPool 0 all three modules serve inside
// the window, which is what the per-module comparison needs — with a
// prewarmed pool eUDM is idle in-window (its batch refills all land
// during prewarm). avPool 8 is the full fast path, prewarmed the way an
// operator would deploy it.
func switchlessWindow(t *testing.T, switchless bool, avPool int) fastPathWindow {
	t.Helper()
	ctx := context.Background()
	tb, err := shield5g.NewTestbed(ctx, shield5g.SliceConfig{
		Isolation:   shield5g.SGX,
		Seed:        1,
		AVPoolDepth: avPool,
		BinarySBI:   true,
		Switchless:  switchless,
	})
	if err != nil {
		t.Fatalf("NewTestbed: %v", err)
	}
	defer tb.Close()

	warm, err := tb.AddSubscriber(ctx, subscriberKey, nil)
	if err != nil {
		t.Fatalf("AddSubscriber(warm): %v", err)
	}
	if _, err := tb.Register(ctx, warm); err != nil {
		t.Fatalf("warm Register: %v", err)
	}

	const n = 100
	devices := make([]*shield5g.UE, n)
	supis := make([]string, n)
	for i := range devices {
		sub, err := tb.AddSubscriber(ctx, subscriberKey, nil)
		if err != nil {
			t.Fatalf("AddSubscriber(%d): %v", i, err)
		}
		devices[i], supis[i] = sub.UE, sub.SUPI.String()
	}
	if avPool > 0 {
		if err := tb.Slice.PrewarmAVPool(ctx, supis); err != nil {
			t.Fatalf("PrewarmAVPool: %v", err)
		}
	}

	before := make(map[shield5g.ModuleKind]sgx.StatsSnapshot, len(tb.Slice.Modules))
	for kind, m := range tb.Slice.Modules {
		before[kind] = m.Stats()
	}
	var res *shield5g.MassResult
	mallocs, _, err := experiments.AllocWindow(func() (err error) {
		res, err = tb.Slice.GNB.RegisterManyWith(ctx, shield5g.MassOptions{
			N:         n,
			NewUE:     func(i int) (*shield5g.UE, error) { return devices[i], nil },
			BatchSize: 8,
		})
		return err
	})
	if err != nil {
		t.Fatalf("RegisterManyWith: %v", err)
	}
	if res.Failed > 0 {
		t.Fatalf("%d of %d registrations failed", res.Failed, n)
	}

	w := fastPathWindow{
		Module:       make(map[shield5g.ModuleKind]moduleWindow, len(tb.Slice.Modules)),
		Virtual:      res.Virtual,
		AllocsPerReg: float64(mallocs) / n,
	}
	for kind, m := range tb.Slice.Modules {
		d := m.Stats().Sub(before[kind])
		w.Module[kind] = moduleWindow{
			EEnterPerReg: float64(d.EENTER) / n,
			EExitPerReg:  float64(d.EEXIT) / n,
			AEXPerReg:    float64(d.AEX) / n,
			OCallsPerReg: float64(d.OCALLs) / n,
		}
		w.TransPerReg += float64(d.EENTER+d.EEXIT) / n
	}
	return w
}

// TestSwitchlessChaosCrashRestartDrainsRing crosses the switchless ring
// with the fault injector's crash class: mid-run enclave crash-restarts
// (which close, drain, and rebuild the module's ring) must not lose or
// double-complete any submission. Every registration converges within
// the retry budget, the redeployed modules keep serving through fresh
// rings, and each live ring's census balances exactly
// (Submitted == Completed + Drained).
func TestSwitchlessChaosCrashRestartDrainsRing(t *testing.T) {
	ctx := context.Background()
	mix := shield5g.ChaosConfig{Seed: 3, CrashRate: 0.05}
	tb, err := shield5g.NewTestbed(ctx, shield5g.SliceConfig{
		Isolation:  shield5g.SGX,
		Seed:       3,
		BinarySBI:  true,
		Switchless: true,
		Chaos:      &mix,
	})
	if err != nil {
		t.Fatalf("NewTestbed: %v", err)
	}
	defer tb.Close()

	const n = 60
	devices := make([]*shield5g.UE, n)
	for i := range devices {
		sub, err := tb.AddSubscriber(ctx, subscriberKey, nil)
		if err != nil {
			t.Fatalf("AddSubscriber(%d): %v", i, err)
		}
		devices[i] = sub.UE
	}
	res, err := tb.Slice.GNB.RegisterManyWith(ctx, shield5g.MassOptions{
		N:           n,
		NewUE:       func(i int) (*shield5g.UE, error) { return devices[i], nil },
		BatchSize:   8,
		MaxAttempts: 5,
	})
	if err != nil {
		t.Fatalf("RegisterManyWith: %v", err)
	}
	if res.Failed > 0 {
		t.Fatalf("%d of %d registrations failed under crash chaos", res.Failed, n)
	}
	if crashes := tb.Slice.Chaos.Counts()["crash"]; crashes == 0 {
		t.Fatal("the seed drew no crashes; the test exercised nothing")
	}
	for kind, m := range tb.Slice.Modules {
		st := m.RingStats()
		if st.Submitted == 0 {
			t.Errorf("%s: ring served nothing after crash-restart", kind)
		}
		if st.Submitted != st.Completed+st.Drained {
			t.Errorf("%s: ring census imbalanced: submitted=%d completed=%d drained=%d",
				kind, st.Submitted, st.Completed, st.Drained)
		}
	}

	// The slice keeps working after the last redeploy.
	sub, err := tb.AddSubscriber(ctx, subscriberKey, nil)
	if err != nil {
		t.Fatalf("AddSubscriber(post): %v", err)
	}
	if _, err := tb.Register(ctx, sub); err != nil {
		t.Fatalf("post-chaos Register: %v", err)
	}
}

// TestSwitchlessPerModuleTransitions pins the per-module transition
// profile of the switchless ring against the classic ECALL path on the
// same seed and workload.
//
// Assertions, per module:
//   - EENTER and EEXIT per registration drop by >= 85% when the ring is
//     on (empirically ~99%: eAUSF 19.20 -> 0.26, eUDM 19.13 -> 0.14,
//     eAMF 18.96 -> 0.13).
//   - AEX per registration is bit-identical across modes: asynchronous
//     exits come from the platform's deterministic interrupt schedule,
//     not from how requests cross the boundary, so the ring must not
//     perturb them.
//   - OCALLs per registration are bit-identical across modes: the ring
//     eliminates the EENTER/EEXIT cycle of the call itself, but every
//     service the enclave asks of the host is still an OCALL even when
//     its handoff is exitless.
//
// In-window ordering: eAUSF pays the most transitions in both modes
// (it fields DeriveSE per registration plus the resync round trips),
// with eUDM and eAMF close behind. This differs from the module-
// lifetime view where eUDM dominates via AV-batch minting — batch-8
// keep-alive sessions amortize entry jigs enough that the per-window
// spread between modules is small, and prewarm moves eUDM's minting
// out of any steady-state window entirely.
func TestSwitchlessPerModuleTransitions(t *testing.T) {
	classic := switchlessWindow(t, false, 0).Module
	ring := switchlessWindow(t, true, 0).Module

	kinds := []shield5g.ModuleKind{shield5g.EUDM, shield5g.EAUSF, shield5g.EAMF}
	for _, kind := range kinds {
		c, ok := classic[kind]
		if !ok {
			t.Fatalf("classic run has no %s module", kind)
		}
		r, ok := ring[kind]
		if !ok {
			t.Fatalf("switchless run has no %s module", kind)
		}
		t.Logf("%s: classic EENTER/reg=%.3f AEX/reg=%.3f OCALLs/reg=%.3f | switchless EENTER/reg=%.3f AEX/reg=%.3f OCALLs/reg=%.3f",
			kind, c.EEnterPerReg, c.AEXPerReg, c.OCallsPerReg,
			r.EEnterPerReg, r.AEXPerReg, r.OCallsPerReg)

		if c.EEnterPerReg < 10 {
			t.Errorf("%s: classic path shows only %.3f EENTER/reg; the window is not exercising the module", kind, c.EEnterPerReg)
		}
		if want := c.EEnterPerReg * 0.15; r.EEnterPerReg > want {
			t.Errorf("%s: switchless EENTER/reg = %.3f, want <= %.3f (>= 85%% drop from classic %.3f)",
				kind, r.EEnterPerReg, want, c.EEnterPerReg)
		}
		if want := c.EExitPerReg * 0.15; r.EExitPerReg > want {
			t.Errorf("%s: switchless EEXIT/reg = %.3f, want <= %.3f (>= 85%% drop from classic %.3f)",
				kind, r.EExitPerReg, want, c.EExitPerReg)
		}
		if r.AEXPerReg != c.AEXPerReg {
			t.Errorf("%s: AEX/reg changed with the ring (classic %.3f, switchless %.3f); AEX must be mode-independent",
				kind, c.AEXPerReg, r.AEXPerReg)
		}
		if r.OCallsPerReg != c.OCallsPerReg {
			t.Errorf("%s: OCALLs/reg changed with the ring (classic %.3f, switchless %.3f); exitless handoff must still count every OCALL",
				kind, c.OCallsPerReg, r.OCallsPerReg)
		}
	}

	// eAUSF carries the heaviest in-window transition load in both modes.
	for name, w := range map[string]map[shield5g.ModuleKind]moduleWindow{"classic": classic, "switchless": ring} {
		ausf := w[shield5g.EAUSF].EEnterPerReg
		for _, kind := range kinds {
			if kind == shield5g.EAUSF {
				continue
			}
			if got := w[kind].EEnterPerReg; got > ausf {
				t.Errorf("%s: %s EENTER/reg (%.3f) exceeds eAUSF's (%.3f); expected eAUSF to lead the in-window census",
					name, kind, got, ausf)
			}
		}
	}
}

// TestSwitchlessFastPathGates holds the ring's contract on the full fast
// path (batch-8 keep-alive, AV pool 8 prewarmed, binary SBI): back-to-back
// registrations cross the boundary with (nearly) no EENTER/EEXIT, the run
// is no slower on the virtual clock than the classic crossing, and both
// crossings stay inside the allocation budget. The first two are
// deterministic virtual figures. "Back-to-back" matters: a radio-paced
// closed loop leaves each ring idle between registrations and pays a
// doorbell per module per registration instead.
func TestSwitchlessFastPathGates(t *testing.T) {
	classic := switchlessWindow(t, false, 8)
	ring := switchlessWindow(t, true, 8)
	t.Logf("classic: %.2f transitions/reg, virtual %v, %.1f allocs/reg | switchless: %.2f transitions/reg, virtual %v, %.1f allocs/reg",
		classic.TransPerReg, classic.Virtual, classic.AllocsPerReg, ring.TransPerReg, ring.Virtual, ring.AllocsPerReg)
	if ring.TransPerReg >= 10 {
		t.Errorf("switchless fast path pays %.2f transitions/registration, want < 10", ring.TransPerReg)
	}
	if classic.TransPerReg < 50 {
		t.Errorf("classic fast path pays only %.2f transitions/registration; the window is not exercising the boundary", classic.TransPerReg)
	}
	if ring.Virtual > classic.Virtual {
		t.Errorf("switchless fast path took %v of virtual time, slower than the classic crossing's %v", ring.Virtual, classic.Virtual)
	}
	for name, w := range map[string]fastPathWindow{"classic": classic, "switchless": ring} {
		if !race.Enabled && w.AllocsPerReg >= experiments.FastPathAllocBudget {
			t.Errorf("%s fast path allocates %.2f allocs/registration, want < %v", name, w.AllocsPerReg, experiments.FastPathAllocBudget)
		}
	}
}

// TestSwitchlessParallelMintsWholeBatches: no minted vector goes missing,
// whatever the ring timing, the replica count or an eUDM crash-restart.
// Four workers submit through the eUDM ring at once for three rounds over
// the same UEs — first contact, the banked hit, a steady-state refill —
// optionally with one restart of shard 0's eUDM after the first round. Every
// vector the UDR advanced a sequence number for is then served, banked
// or invalidated: served + banked + invalidated == minted, with minted
// read from the UDR (each SUPI's SQN advance over the per-vector step),
// not from the pool's own counters.
func TestSwitchlessParallelMintsWholeBatches(t *testing.T) {
	const n, rounds, batch, sqnStep = 64, 3, 8, 32
	for _, replicas := range []int{1, 4} {
		for _, restart := range []bool{false, true} {
			t.Run(fmt.Sprintf("replicas-%d/restart-%v", replicas, restart), func(t *testing.T) {
				ctx := context.Background()
				tb, err := shield5g.NewTestbed(ctx, shield5g.SliceConfig{
					Isolation:   shield5g.SGX,
					Seed:        1,
					Replicas:    replicas,
					AVPoolDepth: batch,
					BinarySBI:   true,
					Switchless:  true,
				})
				if err != nil {
					t.Fatalf("NewTestbed: %v", err)
				}
				defer tb.Close()

				devices := make([]*shield5g.UE, n)
				supis := make([]string, n)
				for i := range devices {
					sub, err := tb.AddSubscriber(ctx, subscriberKey, nil)
					if err != nil {
						t.Fatalf("AddSubscriber(%d): %v", i, err)
					}
					devices[i], supis[i] = sub.UE, sub.SUPI.String()
				}
				for round := 0; round < rounds; round++ {
					if restart && round == 1 {
						if err := tb.Slice.RestartShardModule(ctx, 0, shield5g.EUDM); err != nil {
							t.Fatalf("RestartShardModule: %v", err)
						}
					}
					res, err := tb.Slice.GNB.RegisterManyWith(ctx, shield5g.MassOptions{
						N:           n,
						NewUE:       func(i int) (*shield5g.UE, error) { return devices[i], nil },
						Parallelism: 4,
						BatchSize:   8,
					})
					if err != nil {
						t.Fatalf("round %d: RegisterManyWith: %v", round, err)
					}
					if res.Failed > 0 {
						t.Fatalf("round %d: %d of %d registrations failed", round, res.Failed, n)
					}
				}

				udrc := udr.NewClient(sbi.NewClient("test", tb.Slice.Env, tb.Slice.Registry))
				var minted uint64
				for _, supi := range supis {
					id, err := codec.ParseSUPI(supi)
					if err != nil {
						t.Fatal(err)
					}
					sub, err := udrc.Get(ctx, id)
					if err != nil {
						t.Fatalf("UDR Get %s: %v", supi, err)
					}
					var sqn [8]byte
					copy(sqn[2:], sub.SQN)
					minted += binary.BigEndian.Uint64(sqn[:]) / sqnStep
				}
				st := tb.Slice.AVPoolStats()
				if served := st.Hits + st.Misses; served != n*rounds {
					t.Fatalf("pool served %d vectors, want %d", served, n*rounds)
				}
				if restart != (st.Invalidated > 0) {
					t.Fatalf("restart=%v but %d vectors invalidated", restart, st.Invalidated)
				}
				if got := st.Hits + st.Misses + uint64(st.Pooled) + st.Invalidated; got != minted {
					t.Fatalf("served %d + banked %d + invalidated %d = %d, but the UDR minted %d",
						st.Hits+st.Misses, st.Pooled, st.Invalidated, got, minted)
				}
			})
		}
	}
}
