package deploy

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"shield5g/internal/chaos"
	"shield5g/internal/crypto/milenage"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/gnb"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/nf/udm"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
	"shield5g/internal/ue"
)

func newTestSlice(t *testing.T, iso paka.Isolation) *Slice {
	t.Helper()
	return newSliceWith(t, SliceConfig{Isolation: iso, Seed: 42})
}

func newSliceWith(t *testing.T, cfg SliceConfig) *Slice {
	t.Helper()
	s, err := NewSlice(context.Background(), cfg)
	if err != nil {
		t.Fatalf("NewSlice(%s, replicas=%d): %v", cfg.Isolation, cfg.Replicas, err)
	}
	t.Cleanup(s.Stop)
	return s
}

// forReplicas runs test once per shard count. 0 and 1 both mean one shard;
// nothing a slice does may depend on which of the two was written.
func forReplicas(t *testing.T, test func(t *testing.T, replicas int)) {
	for _, replicas := range []int{0, 1, 2, 4} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) { test(t, replicas) })
	}
}

// registeredUEs sums the registered contexts over every shard's AMF.
func registeredUEs(s *Slice) int {
	n := 0
	for _, shard := range s.Shards {
		n += shard.AMF.RegisteredUEs()
	}
	return n
}

// shardPoolStats snapshots each shard UDM's AV-pool counters in shard
// order.
func shardPoolStats(s *Slice) []udm.AVPoolStats {
	out := make([]udm.AVPoolStats, len(s.Shards))
	for i, shard := range s.Shards {
		out[i] = shard.UDM.AVPoolStats()
	}
	return out
}

// provisionUE creates a subscriber and matching UE device.
func provisionUE(t *testing.T, s *Slice, msin string) *ue.UE {
	t.Helper()
	k := make([]byte, 16)
	if _, err := io.ReadFull(rand.Reader, k); err != nil {
		t.Fatalf("key gen: %v", err)
	}
	return provisionUEKey(t, s, msin, k)
}

// provisionUEKey provisions msin's subscriber with long-term key k and
// returns a UE device holding k.
func provisionUEKey(t *testing.T, s *Slice, msin string, k []byte) *ue.UE {
	t.Helper()
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: msin}
	opc, err := milenage.ComputeOPc(k, make([]byte, 16))
	if err != nil {
		t.Fatalf("ComputeOPc: %v", err)
	}
	if err := s.ProvisionSubscriber(context.Background(), supi, k, opc); err != nil {
		t.Fatalf("ProvisionSubscriber: %v", err)
	}
	device, err := ue.New(ue.Config{
		SUPI:                 supi,
		K:                    k,
		OPc:                  opc,
		HomeNetworkPublicKey: s.HomeNetworkKey.PublicKey(),
		HomeNetworkKeyID:     s.HomeNetworkKey.ID,
		Env:                  s.Env,
	})
	if err != nil {
		t.Fatalf("ue.New: %v", err)
	}
	return device
}

func TestRegistrationAllIsolationModes(t *testing.T) {
	for _, iso := range []paka.Isolation{paka.Container, paka.SGX, paka.SEV} {
		t.Run(iso.String(), func(t *testing.T) {
			forReplicas(t, func(t *testing.T, replicas int) {
				s := newSliceWith(t, SliceConfig{Isolation: iso, Seed: 42, Replicas: replicas})
				if len(s.Shards) != max(replicas, 1) {
					t.Fatalf("Shards = %d, want %d", len(s.Shards), max(replicas, 1))
				}
				if s.Router.Epoch() != 1 {
					t.Fatalf("router epoch %d after deployment, want 1", s.Router.Epoch())
				}
				if s.AMF != s.Shards[0].AMF {
					t.Fatal("top-level AMF is not shard 0's")
				}
				device := provisionUE(t, s, "0000000001")

				var acct simclock.Account
				ctx := simclock.WithAccount(context.Background(), &acct)
				sess, err := s.GNB.RegisterUE(ctx, device)
				if err != nil {
					t.Fatalf("RegisterUE: %v", err)
				}
				// The routing decision is where the UE's context lives.
				if sess.Shard() != s.GNB.ShardOf(device.SUPIString()) {
					t.Fatalf("served by shard %d, routed to %d", sess.Shard(), s.GNB.ShardOf(device.SUPIString()))
				}
				if got := s.Shards[sess.Shard()].AMF.RegisteredUEs(); got != 1 || registeredUEs(s) != 1 {
					t.Fatalf("owning AMF holds %d UEs, fleet %d, want 1 and 1", got, registeredUEs(s))
				}
				if _, ok := device.GUTI(); !ok {
					t.Fatal("UE has no GUTI after registration")
				}
				if sess.SetupTime <= 0 {
					t.Fatal("no setup time recorded")
				}

				// Data session end to end.
				if err := sess.EstablishPDUSession(ctx, 1, "internet"); err != nil {
					t.Fatalf("EstablishPDUSession: %v", err)
				}
				if device.UEAddress() == "" {
					t.Fatal("UE has no address after PDU session")
				}
				resp, err := sess.SendData(ctx, []byte("ping"))
				if err != nil {
					t.Fatalf("SendData: %v", err)
				}
				if !bytes.Contains(resp, []byte("ping")) {
					t.Fatalf("data path response = %q", resp)
				}
			})
		})
	}
}

func TestRegistrationDerivesSameKeysBothSides(t *testing.T) {
	// If UE and network derived different K_AMF the SecurityModeComplete
	// would fail integrity — so a completed registration already proves
	// key agreement. This test asserts the registration completes with
	// ciphered NAS (no plaintext fallbacks).
	s := newTestSlice(t, paka.SGX)
	device := provisionUE(t, s, "0000000002")
	if _, err := s.GNB.RegisterUE(context.Background(), device); err != nil {
		t.Fatalf("RegisterUE: %v", err)
	}
	supi, ok := s.AMF.SUPIOf(1)
	if !ok {
		t.Fatal("AMF lost the UE")
	}
	if supi != device.SUPI().String() {
		t.Fatalf("AMF SUPI = %s, want %s", supi, device.SUPI().String())
	}
}

func TestResynchronisationFlow(t *testing.T) {
	s := newTestSlice(t, paka.SGX)
	device := provisionUE(t, s, "0000000003")

	// Push the USIM sequence number far ahead of the network's so the
	// first challenge is stale, forcing an AUTS resynchronisation.
	if err := device.SetSQN([]byte{0x00, 0x00, 0x00, 0x01, 0x00, 0x00}); err != nil {
		t.Fatalf("SetSQN: %v", err)
	}
	if _, err := s.GNB.RegisterUE(context.Background(), device); err != nil {
		t.Fatalf("RegisterUE with resync: %v", err)
	}
	if s.AMF.RegisteredUEs() != 1 {
		t.Fatal("registration after resync did not complete")
	}
}

func TestUnknownSubscriberRejected(t *testing.T) {
	s := newTestSlice(t, paka.Container)
	// A UE whose key was never provisioned.
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: "9999999999"}
	k := make([]byte, 16)
	device, err := ue.New(ue.Config{
		SUPI: supi, K: k, OPc: k,
		HomeNetworkPublicKey: s.HomeNetworkKey.PublicKey(),
		HomeNetworkKeyID:     s.HomeNetworkKey.ID,
		Env:                  s.Env,
	})
	if err != nil {
		t.Fatalf("ue.New: %v", err)
	}
	if _, err := s.GNB.RegisterUE(context.Background(), device); err == nil {
		t.Fatal("unprovisioned subscriber registered")
	}
}

func TestWrongKeyFailsAuthentication(t *testing.T) {
	s := newTestSlice(t, paka.Container)
	device := provisionUE(t, s, "0000000004")

	// Second device with the same identity but a corrupted key: its
	// AUTN check fails (network MAC computed under the real key).
	bad := make([]byte, 16)
	impostor, err := ue.New(ue.Config{
		SUPI: device.SUPI(), K: bad, OPc: bad,
		HomeNetworkPublicKey: s.HomeNetworkKey.PublicKey(),
		HomeNetworkKeyID:     s.HomeNetworkKey.ID,
		Env:                  s.Env,
	})
	if err != nil {
		t.Fatalf("ue.New: %v", err)
	}
	if _, err := s.GNB.RegisterUE(context.Background(), impostor); err == nil {
		t.Fatal("impostor with wrong key registered")
	}
	if s.AMF.RegisteredUEs() != 0 {
		t.Fatal("impostor counted as registered")
	}
}

func TestCOTSProfilePLMNGate(t *testing.T) {
	s := newTestSlice(t, paka.SGX)
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000000005"}
	profile := ue.OnePlus8()
	device, err := ue.New(ue.Config{
		SUPI: supi, K: make([]byte, 16), OPc: make([]byte, 16),
		HomeNetworkPublicKey: s.HomeNetworkKey.PublicKey(),
		HomeNetworkKeyID:     s.HomeNetworkKey.ID,
		Env:                  s.Env,
		Profile:              &profile,
	})
	if err != nil {
		t.Fatalf("ue.New: %v", err)
	}
	// The slice broadcasts 00101, which the OnePlus 8 detects.
	if err := device.DetectNetwork(s.GNB.BroadcastPLMN()); err != nil {
		t.Fatalf("DetectNetwork(00101): %v", err)
	}
	// A custom PLMN is not detected (the paper's observation).
	if err := device.DetectNetwork("99942"); err == nil {
		t.Fatal("custom PLMN detected by COTS profile")
	}
	// A wrong OS build blocks the end-to-end connection.
	profile2 := ue.OnePlus8()
	profile2.OSVersion = "Oxygen 10.0.0"
	device2, err := ue.New(ue.Config{
		SUPI: supi, K: make([]byte, 16), OPc: make([]byte, 16),
		HomeNetworkPublicKey: s.HomeNetworkKey.PublicKey(),
		HomeNetworkKeyID:     s.HomeNetworkKey.ID,
		Env:                  s.Env,
		Profile:              &profile2,
	})
	if err != nil {
		t.Fatalf("ue.New: %v", err)
	}
	if err := device2.DetectNetwork(s.GNB.BroadcastPLMN()); err == nil {
		t.Fatal("wrong OS build connected")
	}
}

func TestMassRegistration(t *testing.T) {
	forReplicas(t, func(t *testing.T, replicas int) {
		s := newSliceWith(t, SliceConfig{Isolation: paka.SGX, Seed: 42, Replicas: replicas})
		const n = 10
		result, err := s.GNB.RegisterManyWith(context.Background(), gnb.MassOptions{N: n, NewUE: func(i int) (*ue.UE, error) {
			return provisionUEDevice(t, s, fmt.Sprintf("%010d", 200+i))
		}})
		if err != nil {
			t.Fatalf("RegisterManyWith: %v", err)
		}
		if result.Registered != n || result.Failed != 0 {
			t.Fatalf("registered %d, failed %d", result.Registered, result.Failed)
		}
		if result.SetupTimes.N() != n {
			t.Fatalf("setup samples = %d", result.SetupTimes.N())
		}

		// One lane per shard, whatever the shard count, and the lanes
		// partition the run: every registration lands in exactly one of
		// them, and with one attempt per UE their busy time is the run's
		// setup time (each sample and each lane truncated to the
		// nanosecond).
		if len(result.ShardStats) != len(s.Shards) {
			t.Fatalf("ShardStats = %d lanes for %d shards", len(result.ShardStats), len(s.Shards))
		}
		var busiest, busy, setups time.Duration
		registered := 0
		for i, st := range result.ShardStats {
			registered += st.Registered
			busy += st.Busy
			busiest = max(busiest, st.Busy)
			if st.Failed != 0 || (st.Registered > 0) != (st.Busy > 0) {
				t.Fatalf("lane %d: %d failed, busy %v for %d registrations", i, st.Failed, st.Busy, st.Registered)
			}
			if got := s.Shards[i].AMF.RegisteredUEs(); got != st.Registered {
				t.Fatalf("lane %d tallied %d registrations, its AMF holds %d", i, st.Registered, got)
			}
		}
		for _, d := range result.SetupTimes.Samples() {
			setups += d
		}
		if registered != n {
			t.Fatalf("lanes sum to %d registrations, want %d", registered, n)
		}
		if d := busy - setups; d < 0 || d >= n {
			t.Fatalf("lanes are busy %v, the setup times sum to %v", busy, setups)
		}
		if result.FleetVirtual != busiest || busiest <= 0 {
			t.Fatalf("FleetVirtual = %v, busiest lane %v", result.FleetVirtual, busiest)
		}
		if len(s.Shards) == 1 && result.LaneBalance != 1 {
			t.Fatalf("LaneBalance = %v over one lane", result.LaneBalance)
		}
	})
}

// provisionUEDevice provisions and returns the device in one call.
func provisionUEDevice(t *testing.T, s *Slice, msin string) (*ue.UE, error) {
	return provisionUE(t, s, msin), nil
}

func TestSessionSetupTimeNearPaper(t *testing.T) {
	// The paper measures ~62.38 ms end-to-end session setup with SGX and
	// attributes ~3.48 ms (5.58%) to SGX isolation. Check the modelled
	// setup lands in a compatible range and the SGX delta is a small
	// fraction.
	measure := func(iso paka.Isolation) time.Duration {
		s := newTestSlice(t, iso)
		// Warm the path: first registration pays TLS handshakes and
		// module warm-up everywhere.
		warm := provisionUE(t, s, "0000000010")
		if _, err := s.GNB.RegisterUE(context.Background(), warm); err != nil {
			t.Fatalf("warm RegisterUE(%s): %v", iso, err)
		}
		rec := &[]time.Duration{}
		for i := 0; i < 20; i++ {
			device := provisionUE(t, s, fmt.Sprintf("%010d", 20+i))
			sess, err := s.GNB.RegisterUE(context.Background(), device)
			if err != nil {
				t.Fatalf("RegisterUE(%s): %v", iso, err)
			}
			*rec = append(*rec, sess.SetupTime)
		}
		var sum time.Duration
		for _, d := range *rec {
			sum += d
		}
		return sum / time.Duration(len(*rec))
	}

	sgxTime := measure(paka.SGX)
	containerTime := measure(paka.Container)

	t.Logf("session setup: container=%v sgx=%v delta=%v (%.2f%%)",
		containerTime, sgxTime, sgxTime-containerTime,
		100*float64(sgxTime-containerTime)/float64(sgxTime))

	if sgxTime < 20*time.Millisecond || sgxTime > 120*time.Millisecond {
		t.Errorf("SGX session setup %v not in the paper's ~62 ms regime", sgxTime)
	}
	delta := sgxTime - containerTime
	if delta <= 0 {
		t.Fatal("SGX setup not slower than container")
	}
	frac := float64(delta) / float64(sgxTime)
	if frac < 0.01 || frac > 0.15 {
		t.Errorf("SGX share of setup = %.2f%%, want a small fraction (~5.58%%)", frac*100)
	}
}

func TestGUTIReRegistration(t *testing.T) {
	forReplicas(t, func(t *testing.T, replicas int) {
		s := newSliceWith(t, SliceConfig{Isolation: paka.SGX, Seed: 42, Replicas: replicas})
		device := provisionUE(t, s, "0000000042")

		// Initial registration over SUCI.
		first, err := s.GNB.RegisterUE(context.Background(), device)
		if err != nil {
			t.Fatalf("RegisterUE: %v", err)
		}
		firstGUTI, ok := device.GUTI()
		if !ok {
			t.Fatal("no GUTI after initial registration")
		}

		// Mobility registration over the stored GUTI: the SUCI never
		// crosses the air interface again, a fresh GUTI is issued, and the
		// replica that minted the first one serves it.
		sess, err := s.GNB.ReRegisterUE(context.Background(), device)
		if err != nil {
			t.Fatalf("ReRegisterUE: %v", err)
		}
		secondGUTI, ok := device.GUTI()
		if !ok {
			t.Fatal("no GUTI after re-registration")
		}
		if firstGUTI == secondGUTI {
			t.Fatal("GUTI not refreshed on re-registration")
		}
		if sess.Shard() != first.Shard() {
			t.Fatalf("re-registration served by shard %d, registration by %d", sess.Shard(), first.Shard())
		}
		if sess.SetupTime <= 0 {
			t.Fatal("no setup time")
		}
		// The re-registered session carries data.
		if err := sess.EstablishPDUSession(context.Background(), 2, "internet"); err != nil {
			t.Fatalf("EstablishPDUSession: %v", err)
		}
		if _, err := sess.SendData(context.Background(), []byte("moved")); err != nil {
			t.Fatalf("SendData: %v", err)
		}
	})
}

// TestReRegistrationKeepsOneAMFContext: a mobility registration arrives on
// a fresh RAN UE id, and once it completes the context it superseded is
// released, so a UE holds one AMF context however often it re-registers —
// through the gNB one at a time, and through a storm's re-attach class.
func TestReRegistrationKeepsOneAMFContext(t *testing.T) {
	ctx := context.Background()
	s := newTestSlice(t, paka.Container)
	device := provisionUE(t, s, "0000000046")
	if _, err := s.GNB.RegisterUE(ctx, device); err != nil {
		t.Fatalf("RegisterUE: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.GNB.ReRegisterUE(ctx, device); err != nil {
			t.Fatalf("ReRegisterUE %d: %v", i, err)
		}
	}
	if got := s.AMF.RegisteredUEs(); got != 1 {
		t.Fatalf("one attach and three re-registrations of one UE leave %d AMF contexts, want 1", got)
	}

	storm := newSliceWith(t, SliceConfig{Isolation: paka.Container, Seed: 43, Replicas: 2})
	const arrivals = 40
	next := 46100
	res, err := storm.RunStorm(ctx, 5, arrivals, 0.5, func(sbi.Priority, int) (*ue.UE, error) {
		next++
		return provisionUE(t, storm, fmt.Sprintf("%010d", next)), nil
	})
	if err != nil {
		t.Fatalf("RunStorm: %v", err)
	}
	registered := 0
	for _, class := range res.Class {
		registered += class.Registered
	}
	if registered != arrivals || res.Class[sbi.PriorityReattach].Registered == 0 {
		t.Fatalf("storm registered %d of %d arrivals, %d re-attaches", registered, arrivals, res.Class[sbi.PriorityReattach].Registered)
	}
	if got := registeredUEs(storm); got != arrivals {
		t.Fatalf("%d UEs registered in the storm hold %d AMF contexts, want one each", arrivals, got)
	}
}

// TestFastPathReRegistrationReleasesEveryBody: fast-path GUTI
// re-registrations (SGX, AV pool 8, binary SBI), through an AV pool refill
// and the pooled responses of every hop, leave no SBI body outstanding.
// The count is the body-pool audit's, which is on in -race builds only, so
// the test runs in make ci's -race pass and skips elsewhere.
func TestFastPathReRegistrationReleasesEveryBody(t *testing.T) {
	if !raceEnabled {
		t.Skip("the body-pool audit (sbi.OutstandingBodies) counts only under -race")
	}
	ctx := context.Background()
	s := newSliceWith(t, SliceConfig{Isolation: paka.SGX, Seed: 44, AVPoolDepth: 8, BinarySBI: true})
	device := provisionUE(t, s, "0000000044")
	if _, err := s.GNB.RegisterUE(ctx, device); err != nil {
		t.Fatalf("RegisterUE: %v", err)
	}
	refills := s.AVPoolStats().Refills
	for i := 0; i < 10; i++ {
		if _, err := s.GNB.ReRegisterUE(ctx, device); err != nil {
			t.Fatalf("ReRegisterUE %d: %v", i, err)
		}
	}
	if s.AVPoolStats().Refills == refills {
		t.Fatal("ten re-registrations ran no AV pool refill")
	}
	if n := sbi.OutstandingBodies(); n != 0 {
		t.Fatalf("%d SBI bodies outstanding after the re-registrations, want 0", n)
	}
}

func TestReRegistrationRequiresPriorGUTI(t *testing.T) {
	s := newTestSlice(t, paka.Container)
	device := provisionUE(t, s, "0000000043")
	if _, err := s.GNB.ReRegisterUE(context.Background(), device); err == nil {
		t.Fatal("re-registration without GUTI accepted")
	}
}

func TestForeignGUTIFailsClosedWithoutSubscriber(t *testing.T) {
	// A GUTI from a different slice triggers the TS 24.501 identity
	// procedure; with no subscriber record in the new network the
	// registration still fails closed.
	s1 := newTestSlice(t, paka.Container)
	device := provisionUE(t, s1, "0000000044")
	if _, err := s1.GNB.RegisterUE(context.Background(), device); err != nil {
		t.Fatalf("RegisterUE: %v", err)
	}

	s2, err := NewSlice(context.Background(), SliceConfig{Isolation: paka.Container, Seed: 77})
	if err != nil {
		t.Fatalf("NewSlice: %v", err)
	}
	defer s2.Stop()
	if _, err := s2.GNB.ReRegisterUE(context.Background(), device); err == nil {
		t.Fatal("unprovisioned foreign UE registered")
	}
}

func TestIdentityProcedureRecoversUnknownGUTI(t *testing.T) {
	// Same slice, but the AMF lost the GUTI binding (deregistration):
	// a mobility registration with the stale GUTI falls back to
	// IdentityRequest -> fresh SUCI and completes.
	s := newTestSlice(t, paka.SGX)
	device := provisionUE(t, s, "0000000045")
	sess, err := s.GNB.RegisterUE(context.Background(), device)
	if err != nil {
		t.Fatalf("RegisterUE: %v", err)
	}
	if err := sess.Deregister(context.Background()); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	if _, err := s.GNB.ReRegisterUE(context.Background(), device); err != nil {
		t.Fatalf("identity-procedure recovery failed: %v", err)
	}
	if s.AMF.RegisteredUEs() != 1 {
		t.Fatal("UE not registered after identity procedure")
	}
}

func TestConcurrentRegistrations(t *testing.T) {
	s := newTestSlice(t, paka.SGX)
	const n = 8
	devices := make([]*ue.UE, n)
	for i := range devices {
		devices[i] = provisionUE(t, s, fmt.Sprintf("%010d", 500+i))
	}
	errs := make(chan error, n)
	for _, device := range devices {
		go func() {
			_, err := s.GNB.RegisterUE(context.Background(), device)
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Errorf("concurrent RegisterUE: %v", err)
		}
	}
	if got := s.AMF.RegisteredUEs(); got != n {
		t.Fatalf("RegisteredUEs = %d, want %d", got, n)
	}
}

func TestModuleOutageFailsClosedAndGNBSurvives(t *testing.T) {
	s := newTestSlice(t, paka.SGX)
	device := provisionUE(t, s, "0000000060")
	if _, err := s.GNB.RegisterUE(context.Background(), device); err != nil {
		t.Fatalf("RegisterUE: %v", err)
	}

	// Kill the eUDM P-AKA module: authentication must fail closed (no
	// fallback to unprotected crypto), and the control plane must stay
	// alive for diagnosis rather than crash.
	s.Modules[paka.EUDM].Stop()
	victim := provisionUEDeviceOnly(t, s, "0000000061")
	if _, err := s.GNB.RegisterUE(context.Background(), victim); err == nil {
		t.Fatal("registration succeeded without the eUDM module")
	}
	if got := s.AMF.RegisteredUEs(); got != 1 {
		t.Fatalf("RegisteredUEs = %d, want 1 (only the pre-outage UE)", got)
	}
}

// provisionUEDeviceOnly provisions the UDR/monolith side but tolerates the
// eUDM module being down (provisioning into a dead module is the outage
// under test).
func provisionUEDeviceOnly(t *testing.T, s *Slice, msin string) *ue.UE {
	t.Helper()
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: msin}
	k := make([]byte, 16)
	if _, err := io.ReadFull(rand.Reader, k); err != nil {
		t.Fatalf("key gen: %v", err)
	}
	opc, err := milenage.ComputeOPc(k, make([]byte, 16))
	if err != nil {
		t.Fatalf("ComputeOPc: %v", err)
	}
	_ = s.ProvisionSubscriber(context.Background(), supi, k, opc) // may fail: module down
	device, err := ue.New(ue.Config{
		SUPI: supi, K: k, OPc: opc,
		HomeNetworkPublicKey: s.HomeNetworkKey.PublicKey(),
		HomeNetworkKeyID:     s.HomeNetworkKey.ID,
		Env:                  s.Env,
	})
	if err != nil {
		t.Fatalf("ue.New: %v", err)
	}
	return device
}

// TestSliceStopReleasesAllEPC: an enclave as large as the platform's whole
// EPC builds only once Stop has destroyed every module's enclave.
func TestSliceStopReleasesAllEPC(t *testing.T) {
	ctx := context.Background()
	s, err := NewSlice(ctx, SliceConfig{Isolation: paka.SGX, Seed: 99})
	if err != nil {
		t.Fatalf("NewSlice: %v", err)
	}
	whole := sgx.EnclaveConfig{Name: "whole-epc", SizeBytes: sgx.DefaultEPCCapacity, MaxThreads: 1}
	if _, err := s.Platform.Build(ctx, whole); !errors.Is(err, sgx.ErrEPCExhausted) {
		t.Fatalf("whole-EPC build beside a running SGX slice = %v, want %v", err, sgx.ErrEPCExhausted)
	}
	s.Stop()
	e, err := s.Platform.Build(ctx, whole)
	if err != nil {
		t.Fatalf("EPC still committed after Stop: %v", err)
	}
	e.Destroy()
}

func TestDeregistrationReleasesContext(t *testing.T) {
	s := newTestSlice(t, paka.Container)
	device := provisionUE(t, s, "0000000070")
	sess, err := s.GNB.RegisterUE(context.Background(), device)
	if err != nil {
		t.Fatalf("RegisterUE: %v", err)
	}
	if s.AMF.RegisteredUEs() != 1 {
		t.Fatal("not registered")
	}
	if err := sess.EstablishPDUSession(context.Background(), 1, "internet"); err != nil {
		t.Fatalf("EstablishPDUSession: %v", err)
	}
	if err := sess.Deregister(context.Background()); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	if s.AMF.RegisteredUEs() != 0 {
		t.Fatal("context not released")
	}
	// Detaching releases the UE's PDU session in the SMF and the UPF.
	if smfN, upfN := s.SMF.SessionCount(), s.UPF.SessionCount(); smfN != 0 || upfN != 0 {
		t.Errorf("sessions after deregistration: SMF %d, UPF %d; want 0, 0", smfN, upfN)
	}
	// The old GUTI binding is gone: a mobility registration with it is
	// not blindly accepted but recovered through the identity procedure
	// (IdentityRequest -> fresh SUCI -> full re-authentication).
	again, err := s.GNB.ReRegisterUE(context.Background(), device)
	if err != nil {
		t.Fatalf("identity-procedure recovery after detach: %v", err)
	}
	if s.AMF.RegisteredUEs() != 1 {
		t.Fatal("UE not re-registered")
	}
	// The released session ID is free again.
	if err := again.EstablishPDUSession(context.Background(), 1, "internet"); err != nil {
		t.Fatalf("EstablishPDUSession after re-registration: %v", err)
	}
}

func TestNullSchemeRegistrationExposesMSIN(t *testing.T) {
	s := newTestSlice(t, paka.Container)
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000000090"}
	k := make([]byte, 16)
	if _, err := io.ReadFull(rand.Reader, k); err != nil {
		t.Fatalf("key gen: %v", err)
	}
	opc, err := milenage.ComputeOPc(k, make([]byte, 16))
	if err != nil {
		t.Fatalf("ComputeOPc: %v", err)
	}
	if err := s.ProvisionSubscriber(context.Background(), supi, k, opc); err != nil {
		t.Fatalf("ProvisionSubscriber: %v", err)
	}
	device, err := ue.New(ue.Config{
		SUPI: supi, K: k, OPc: opc,
		HomeNetworkPublicKey: s.HomeNetworkKey.PublicKey(),
		HomeNetworkKeyID:     s.HomeNetworkKey.ID,
		Env:                  s.Env,
		UseNullScheme:        true,
	})
	if err != nil {
		t.Fatalf("ue.New: %v", err)
	}
	// The initial NAS message leaks the MSIN — the privacy gap of the
	// null scheme.
	pdu, err := device.BuildRegistrationRequest(context.Background(), s.AMF.ServingNetworkName())
	if err != nil {
		t.Fatalf("BuildRegistrationRequest: %v", err)
	}
	if !bytes.Contains(pdu, []byte(supi.MSIN)) {
		t.Fatal("null-scheme registration does not carry plaintext MSIN")
	}
	// And the core still registers the UE (test-network behaviour).
	if _, err := s.GNB.RegisterUE(context.Background(), device); err != nil {
		t.Fatalf("null-scheme RegisterUE: %v", err)
	}
}

// TestProvisioningReusesOneClient: every ProvisionSubscriber call goes
// through the slice's one provisioning client, so only the first opens a
// mutual-TLS session, and a slice running the resilience layer builds no
// further resilient invoker per subscriber.
func TestProvisioningReusesOneClient(t *testing.T) {
	var noFaults chaos.Config
	s := newSliceWith(t, SliceConfig{Isolation: paka.Container, Seed: 26, Chaos: &noFaults, BinarySBI: true})
	invokers := len(s.resilients)
	provision := func(msin string) simclock.Cycles {
		var acct simclock.Account
		ctx := simclock.WithAccount(context.Background(), &acct)
		supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: msin}
		if err := s.ProvisionSubscriber(ctx, supi, make([]byte, 16), make([]byte, 16)); err != nil {
			t.Fatalf("ProvisionSubscriber(%s): %v", msin, err)
		}
		return acct.Total()
	}
	first := provision("0000026101")
	for _, msin := range []string{"0000026102", "0000026103"} {
		handshake := s.Env.Model.TLSHandshakeClient + s.Env.Model.TLSHandshakeServer
		if later := provision(msin); later+handshake*9/10 > first {
			t.Errorf("provisioning %s charged %d cycles against the first's %d: it paid a handshake of its own", msin, later, first)
		}
	}
	if got := len(s.resilients); got != invokers {
		t.Errorf("provisioning three subscribers built %d resilient invokers", got-invokers)
	}
}

// TestPrewarmRidesTheEUDMRing: on a Switchless slice the AV-pool prewarm is
// one more request to a ring module, not a classic batch ECALL. Each
// SUPI's refill is one eUDM ring submission paying at most its doorbell's
// EENTER, and the eUDM's manifest holds no spare TCS for a batch ECALL.
func TestPrewarmRidesTheEUDMRing(t *testing.T) {
	s := newSliceWith(t, SliceConfig{Isolation: paka.SGX, Seed: 42, AVPoolDepth: 4, Switchless: true})
	supis := []string{
		provisionUE(t, s, "0000035000").SUPIString(),
		provisionUE(t, s, "0000035001").SUPIString(),
	}
	m := s.Modules[paka.EUDM]
	ring, enters := m.RingStats(), m.Stats().EENTER
	if err := s.PrewarmAVPool(context.Background(), supis); err != nil {
		t.Fatalf("PrewarmAVPool: %v", err)
	}
	after := m.RingStats()
	if got := after.Submitted - ring.Submitted; got != uint64(len(supis)) {
		t.Errorf("prewarm made %d eUDM ring submissions, want one per SUPI (%d)", got, len(supis))
	}
	if got, doorbells := m.Stats().EENTER-enters, after.Doorbells-ring.Doorbells; got != doorbells {
		t.Errorf("prewarm paid %d EENTERs for %d doorbells; want only the doorbells", got, doorbells)
	}
}
