package deploy

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"shield5g/internal/chaos"
	"shield5g/internal/crypto/milenage"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/gnb"
	"shield5g/internal/nf/ausf"
	"shield5g/internal/nf/udr"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
	"shield5g/internal/ue"
)

// crashRecovery crash-restarts the eUDM of the shard that owns a registered,
// pool-prewarmed UE and re-registers it, at every shard count. The restart
// must land on that shard alone, invalidate that shard's banked vectors
// (minted before the crash, they must never be served after it) and leave
// its siblings' in place, and the owning UDM must re-push the key
// wantReprovisions times.
func crashRecovery(t *testing.T, iso paka.Isolation, wantReprovisions uint64) {
	forReplicas(t, func(t *testing.T, replicas int) {
		const depth = 4
		ctx := context.Background()
		s := newSliceWith(t, SliceConfig{Isolation: iso, Seed: 42, Replicas: replicas, AVPoolDepth: depth})
		devices := make([]*ue.UE, 8)
		supis := make([]string, len(devices))
		for i := range devices {
			devices[i] = provisionUE(t, s, fmt.Sprintf("%010d", 31000+i))
			supis[i] = devices[i].SUPIString()
		}
		if err := s.PrewarmAVPool(ctx, supis); err != nil {
			t.Fatalf("PrewarmAVPool: %v", err)
		}
		device := devices[0]
		sess, err := s.GNB.RegisterUE(ctx, device)
		if err != nil {
			t.Fatalf("register before crash: %v", err)
		}
		owner := sess.Shard()
		before := shardPoolStats(s)

		if err := s.RestartShardModule(ctx, owner, paka.EUDM); err != nil {
			t.Fatalf("RestartShardModule(%d): %v", owner, err)
		}
		for i, shard := range s.Shards {
			want := uint64(0)
			if i == owner {
				want = 1
			}
			if got := shard.Modules[paka.EUDM].Restarts(); got != want {
				t.Fatalf("shard %d eUDM Restarts = %d, want %d", i, got, want)
			}
		}
		for i, st := range shardPoolStats(s) {
			switch {
			case i == owner && (st.Pooled != 0 || st.Invalidated != uint64(before[i].Pooled)):
				t.Fatalf("owning shard %d kept %d vectors (invalidated %d of %d) across the crash", i, st.Pooled, st.Invalidated, before[i].Pooled)
			case i != owner && st != before[i]:
				t.Fatalf("shard %d's pool changed (%+v -> %+v) though shard %d crashed", i, before[i], st, owner)
			}
		}

		if _, err := s.GNB.RegisterUE(ctx, device); err != nil {
			t.Fatalf("register after crash: %v", err)
		}
		if n := s.Shards[owner].UDM.Reprovisions(); n != wantReprovisions {
			t.Fatalf("Reprovisions = %d, want %d", n, wantReprovisions)
		}
		if err := s.RestartShardModule(ctx, len(s.Shards), paka.EUDM); err == nil {
			t.Fatal("restart of a shard the slice does not have succeeded")
		}
	})
}

// TestSGXCrashRecoverySealedRestore models a whole-module crash under SGX:
// the rebuilt enclave (same config, same measurement, same seal key)
// restores its subscriber keys from sealed backups, so a UE provisioned
// before the crash re-registers without the UDM ever re-pushing its key.
func TestSGXCrashRecoverySealedRestore(t *testing.T) { crashRecovery(t, paka.SGX, 0) }

// restartReload restarts the eUDM under iso and reports the virtual time
// the recovery charged to the restarting request's account.
func restartReload(t *testing.T, iso paka.Isolation) time.Duration {
	t.Helper()
	s := newTestSlice(t, iso)
	var acct simclock.Account
	ctx := simclock.WithAccount(context.Background(), &acct)
	if err := s.RestartShardModule(ctx, 0, paka.EUDM); err != nil {
		t.Fatalf("RestartShardModule: %v", err)
	}
	return s.Env.Model.Duration(acct.Total())
}

// TestSGXRestartChargesReload pins the recovery cost: the rebuilt enclave
// re-pays the paper's Fig. 7 ~1-minute load in virtual time, charged to
// the restarting request's account.
func TestSGXRestartChargesReload(t *testing.T) {
	if reload := restartReload(t, paka.SGX); reload < 45*time.Second || reload > 75*time.Second {
		t.Fatalf("restart charged %v, want ~1 minute of virtual enclave load", reload)
	}
}

// TestSEVRestartChargesReload: a relaunched confidential VM re-pays its
// measured boot (seconds, not the enclave's minute).
func TestSEVRestartChargesReload(t *testing.T) {
	if reload := restartReload(t, paka.SEV); reload < 2*time.Second || reload > 10*time.Second {
		t.Fatalf("restart charged %v, want the few seconds of a measured VM boot", reload)
	}
}

// TestContainerCrashRecoveryReprovisions models the unshielded path: the
// restarted container runtime has no sealed backup, so the first AV
// request hits USER_NOT_FOUND and the UDM restores the key from the UDR.
func TestContainerCrashRecoveryReprovisions(t *testing.T) { crashRecovery(t, paka.Container, 1) }

// TestSEVCrashRecoveryReprovisions: a confidential VM is a guest process
// too — relaunched empty, restored by the UDM like the container.
func TestSEVCrashRecoveryReprovisions(t *testing.T) { crashRecovery(t, paka.SEV, 1) }

// TestSGXSliceNeverPullsKOverSBI: an SGX eUDM gets K back from its sealed
// backups, never from the UDR, so its UDM has no reprovisioning path. A
// subscriber the UDR holds but the enclave does not fails with the eUDM's
// USER_NOT_FOUND instead of the UDM fetching K (udr.Client.Get) and
// pushing it over the SBI.
func TestSGXSliceNeverPullsKOverSBI(t *testing.T) {
	ctx := context.Background()
	s := newSliceWith(t, SliceConfig{Isolation: paka.SGX, Seed: 42})
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000035001"}
	k := []byte("udr-only-key-035")
	opc, err := milenage.ComputeOPc(k, make([]byte, milenage.OPLen))
	if err != nil {
		t.Fatalf("ComputeOPc: %v", err)
	}
	id, err := supi.Value()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.provisioning.Provision(ctx, udr.Subscriber{
		SUPI: id, K: k, OPc: opc, SQN: make([]byte, 6), AMFField: []byte{0x80, 0x00},
	}); err != nil {
		t.Fatalf("UDR provisioning: %v", err)
	}
	device, err := ue.New(ue.Config{
		SUPI: supi, K: k, OPc: opc,
		HomeNetworkPublicKey: s.HomeNetworkKey.PublicKey(),
		HomeNetworkKeyID:     s.HomeNetworkKey.ID,
		Env:                  s.Env,
	})
	if err != nil {
		t.Fatalf("ue.New: %v", err)
	}
	if _, err := s.GNB.RegisterUE(ctx, device); err == nil || !strings.Contains(err.Error(), "USER_NOT_FOUND") {
		t.Fatalf("RegisterUE of a subscriber the enclave never received: err = %v, want the eUDM's USER_NOT_FOUND", err)
	}
	if n := s.Shards[0].UDM.Reprovisions(); n != 0 {
		t.Fatalf("Reprovisions = %d, want 0: K was pulled over the SBI into an enclave", n)
	}
}

// TestSGXResyncNeverPullsKOverSBI: an SQN resynchronisation on an SGX
// slice reads OPc without K. The UDR's full-record read, whose response
// carries K, is replaced by one that fails; the registration must still
// complete through the resync, and the replacement must never run.
func TestSGXResyncNeverPullsKOverSBI(t *testing.T) {
	s := newTestSlice(t, paka.SGX)
	device := provisionUE(t, s, "0000000036")
	srv, ok := s.Registry.Lookup(udr.ServiceName)
	if !ok {
		t.Fatal("no UDR server")
	}
	gets := 0
	srv.HandleDual(udr.PathGet, func(context.Context, []byte) ([]byte, error) {
		gets++
		return nil, sbi.Problem(500, "Internal Server Error", "SYSTEM_FAILURE", "K requested over the SBI")
	})
	// A USIM far ahead of the network: the first challenge is stale and
	// the UE answers with an AUTS.
	if err := device.SetSQN([]byte{0x00, 0x00, 0x00, 0x01, 0x00, 0x00}); err != nil {
		t.Fatalf("SetSQN: %v", err)
	}
	if _, err := s.GNB.RegisterUE(context.Background(), device); err != nil {
		t.Fatalf("RegisterUE with resync: %v", err)
	}
	if gets != 0 {
		t.Fatalf("the UDR's full-record read ran %d time(s): K crossed the SBI", gets)
	}
	// Two vectors and the AUTS check between them: the resync happened.
	if n := s.Modules[paka.EUDM].FunctionalLatency().N(); n != 3 {
		t.Fatalf("eUDM served %d requests, want 3 (AV, resync, AV)", n)
	}
	if registeredUEs(s) != 1 {
		t.Fatal("registration after resync did not complete")
	}
}

// TestChaosCrashDrawRestartsEveryBackend: every module backend can rebuild
// itself, so a crash draw is a real crash under each of them — counted by
// the injector, survived by the module — never a silent clean call.
func TestChaosCrashDrawRestartsEveryBackend(t *testing.T) {
	for _, iso := range []paka.Isolation{paka.SGX, paka.Container, paka.SEV} {
		t.Run(iso.String(), func(t *testing.T) {
			ctx := context.Background()
			mix := chaos.Config{Seed: 7, CrashRate: 0.15}
			s := newSliceWith(t, SliceConfig{Isolation: iso, Seed: 42, Chaos: &mix})
			s.Chaos.SetArmed(false)
			devices := make([]*ue.UE, 12)
			for i := range devices {
				devices[i] = provisionUE(t, s, fmt.Sprintf("%010d", 34000+i))
			}
			s.Chaos.SetArmed(true)
			res, err := s.GNB.RegisterManyWith(ctx, gnb.MassOptions{
				N:           len(devices),
				NewUE:       func(i int) (*ue.UE, error) { return devices[i], nil },
				MaxAttempts: 5,
			})
			if err != nil {
				t.Fatalf("RegisterManyWith: %v", err)
			}
			var restarts uint64
			for _, m := range s.Shards[0].Modules {
				restarts += m.Restarts()
			}
			crashes := s.Chaos.Counts()[chaos.KindCrash.String()]
			if crashes == 0 || crashes != restarts {
				t.Fatalf("%d crash draws, %d module restarts: want equal and non-zero", crashes, restarts)
			}
			if res.Registered != len(devices) {
				t.Fatalf("registered %d/%d across %d crash-restarts", res.Registered, len(devices), crashes)
			}
			t.Logf("%s: %d crash-restarts survived over %d attempts", iso, crashes, res.Attempts)
		})
	}
}

// TestAUSFPendingAuthTTL covers the pending-auth expiry sweep: an auth
// context abandoned mid-registration is reaped once the virtual clock
// passes the TTL, while fresh contexts survive.
func TestAUSFPendingAuthTTL(t *testing.T) {
	ctx := context.Background()
	s := newTestSlice(t, paka.Container)
	provisionUE(t, s, "0000031003")

	client := sbi.NewClient("test", s.Env, s.Registry)
	authenticate := func() {
		var resp ausf.AuthenticateResponse
		if err := client.Post(ctx, "ausf", ausf.PathAuthenticate, &ausf.AuthenticateRequest{
			SUPI:               "imsi-00101" + "0000031003",
			ServingNetworkName: s.AMF.ServingNetworkName(),
		}, &resp); err != nil {
			t.Fatalf("Authenticate: %v", err)
		}
	}

	authenticate() // abandoned: never confirmed
	if n := s.Shards[0].AUSF.PendingSessions(); n != 1 {
		t.Fatalf("pending = %d, want 1", n)
	}

	// Advance virtual time past the TTL, then create a fresh context.
	s.Env.Charge(ctx, simclock.FromDuration(ausf.PendingAuthTTL+time.Minute, s.Env.Clock.FrequencyHz()))
	authenticate()

	if reaped := s.Shards[0].AUSF.SweepExpired(); reaped != 1 {
		t.Fatalf("SweepExpired = %d, want 1 (only the abandoned context)", reaped)
	}
	if n := s.Shards[0].AUSF.PendingSessions(); n != 1 {
		t.Fatalf("pending after sweep = %d, want the fresh context only", n)
	}
	if n := s.Shards[0].AUSF.ExpiredSessions(); n != 1 {
		t.Fatalf("ExpiredSessions = %d, want 1", n)
	}
}

// chaosMassRun deploys a chaos-enabled slice, provisions the population
// fault-free, then drives a parallel mass registration under faults.
func chaosMassRun(t *testing.T, n, parallelism int) *gnb.MassResult {
	t.Helper()
	ctx := context.Background()
	// Per-request faults only: cross-worker faults (crash, evict) couple
	// workers through shared module state, which is exactly what the
	// sequential driver is for. This mix keeps parallel runs comparable.
	mix := chaos.Config{Seed: 11, LatencyRate: 0.03, ErrorRate: 0.04, DropRate: 0.03}
	s, err := NewSlice(ctx, SliceConfig{Isolation: paka.Container, Seed: 42, Chaos: &mix})
	if err != nil {
		t.Fatalf("NewSlice: %v", err)
	}
	t.Cleanup(s.Stop)

	s.Chaos.SetArmed(false)
	devices := make([]*ue.UE, n)
	for i := range devices {
		devices[i] = provisionUE(t, s, fmt.Sprintf("%010d", 32000+i))
	}
	s.Chaos.SetArmed(true)

	res, err := s.GNB.RegisterManyWith(ctx, gnb.MassOptions{
		N:           n,
		NewUE:       func(i int) (*ue.UE, error) { return devices[i], nil },
		Parallelism: parallelism,
		MaxAttempts: 4,
	})
	if err != nil {
		t.Fatalf("RegisterManyWith: %v", err)
	}
	return res
}

// TestParallelChaosDeterministicOutcome runs the parallel driver under
// per-request faults twice with the same seeds: worker-owned decision and
// cost streams make the outcome counts identical regardless of goroutine
// interleaving. Run under -race via `make vet`, this also exercises the
// injector, resilience layer and retry re-queue for data races.
func TestParallelChaosDeterministicOutcome(t *testing.T) {
	const n, par = 24, 4
	a := chaosMassRun(t, n, par)
	b := chaosMassRun(t, n, par)

	if a.Registered != n {
		t.Errorf("registered = %d/%d under 10%% per-request faults with retries", a.Registered, n)
	}
	if a.Registered != b.Registered || a.Failed != b.Failed || a.Attempts != b.Attempts {
		t.Errorf("outcome diverged: (%d,%d,%d) vs (%d,%d,%d)",
			a.Registered, a.Failed, a.Attempts, b.Registered, b.Failed, b.Attempts)
	}
	if !reflect.DeepEqual(a.FailureCounts, b.FailureCounts) {
		t.Errorf("failure classes diverged: %v vs %v", a.FailureCounts, b.FailureCounts)
	}
	if !reflect.DeepEqual(a.Recovered, b.Recovered) {
		t.Errorf("recovery classes diverged: %v vs %v", a.Recovered, b.Recovered)
	}
}

// TestSequentialChaosBitIdentical is the stacked acceptance check at the
// driver level: two same-seed sequential runs under the full fault mix
// (crashes included) produce bit-identical outcome counts.
func TestSequentialChaosBitIdentical(t *testing.T) {
	run := func() *gnb.MassResult {
		ctx := context.Background()
		mix := chaos.DefaultMix(13, 0.10)
		s, err := NewSlice(ctx, SliceConfig{Isolation: paka.SGX, Seed: 42, Chaos: &mix})
		if err != nil {
			t.Fatalf("NewSlice: %v", err)
		}
		defer s.Stop()
		s.Chaos.SetArmed(false)
		devices := make([]*ue.UE, 30)
		for i := range devices {
			devices[i] = provisionUE(t, s, fmt.Sprintf("%010d", 33000+i))
		}
		s.Chaos.SetArmed(true)
		res, err := s.GNB.RegisterManyWith(ctx, gnb.MassOptions{
			N:           30,
			NewUE:       func(i int) (*ue.UE, error) { return devices[i], nil },
			MaxAttempts: 5,
		})
		if err != nil {
			t.Fatalf("RegisterManyWith: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.Registered != b.Registered || a.Failed != b.Failed || a.Attempts != b.Attempts ||
		!reflect.DeepEqual(a.FailureCounts, b.FailureCounts) ||
		!reflect.DeepEqual(a.Recovered, b.Recovered) {
		t.Fatalf("same-seed sequential runs diverged:\n(%d,%d,%d) %v %v\n(%d,%d,%d) %v %v",
			a.Registered, a.Failed, a.Attempts, a.FailureCounts, a.Recovered,
			b.Registered, b.Failed, b.Attempts, b.FailureCounts, b.Recovered)
	}
	if a.Registered < 30*99/100 {
		t.Errorf("registered %d/30, want >= 99%%", a.Registered)
	}
}

// TestNewSliceRejectsInvalidChaos: the cumulative fault draw can only
// honour rates that are each >= 0 and sum to at most 1, so NewSlice
// refuses any other chaos input instead of silently shrinking or
// saturating the fault classes.
func TestNewSliceRejectsInvalidChaos(t *testing.T) {
	for _, tc := range []struct {
		name string
		mix  chaos.Config
		ok   bool
	}{
		{"default mix", chaos.DefaultMix(1, 0.3), true},
		{"every request faults", chaos.Config{ErrorRate: 1}, true},
		{"no faults", chaos.Config{}, true},
		{"negative rate", chaos.Config{LatencyRate: -0.1, ErrorRate: 0.2}, false},
		{"sum above one", chaos.DefaultMix(1, 1.5), false},
		{"NaN rate", chaos.Config{DropRate: math.NaN()}, false},
	} {
		mix := tc.mix
		s, err := NewSlice(context.Background(), SliceConfig{Isolation: paka.Container, Seed: 1, Chaos: &mix})
		if s != nil {
			s.Stop()
		}
		if (err == nil) != tc.ok {
			t.Errorf("%s: NewSlice err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// nopInvoker answers every request at once, so the only enclave work a
// wrapped call causes is the fault the injector lands.
type nopInvoker struct{}

func (nopInvoker) Post(context.Context, string, string, any, any) error { return nil }

// TestAEXStormLandsOnRestartedEnclave: the injector resolves a module's
// enclave when a fault lands, so after RestartShardModule an AEX storm
// hits the fresh enclave, not the destroyed one.
func TestAEXStormLandsOnRestartedEnclave(t *testing.T) {
	mix := chaos.Config{Seed: 7, AEXStormRate: 1}
	s := newSliceWith(t, SliceConfig{Isolation: paka.SGX, Seed: 5, Chaos: &mix})
	m := s.Shards[0].Modules[paka.EUDM]
	old := m.Enclave()
	if err := s.RestartShardModule(context.Background(), 0, paka.EUDM); err != nil {
		t.Fatalf("RestartShardModule: %v", err)
	}
	fresh := m.Enclave()
	if fresh == nil || fresh == old {
		t.Fatal("restart did not replace the eUDM's enclave")
	}
	oldAEX, freshAEX := old.Stats().AEX, fresh.Stats().AEX
	if err := s.Chaos.Wrap(nopInvoker{}).Post(context.Background(), m.ServiceName(), paka.PathUDMGenerateAV, nil, nil); err != nil {
		t.Fatalf("Post: %v", err)
	}
	if got := s.Chaos.Counts()[chaos.KindAEXStorm.String()]; got != 1 {
		t.Fatalf("AEX storms drawn = %d, want 1", got)
	}
	if got := fresh.Stats().AEX - freshAEX; got == 0 {
		t.Error("the AEX storm missed the restarted enclave")
	}
	if got := old.Stats().AEX - oldAEX; got != 0 {
		t.Errorf("the destroyed enclave took %d AEX", got)
	}
}
