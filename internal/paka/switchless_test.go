package paka

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"testing"

	"shield5g/internal/hmee/gramine"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/simclock"
)

// switchlessModule deploys replica r of an SGX module with the switchless
// ECALL ring in its manifest.
func (h *harness) switchlessModule(t *testing.T, kind ModuleKind, r int) *Module {
	t.Helper()
	m, err := New(context.Background(), Config{
		Kind:       kind,
		Isolation:  SGX,
		Env:        h.env,
		Platform:   h.platform,
		Registry:   h.registry,
		Switchless: true,
		Replica:    r,
	})
	if err != nil {
		t.Fatalf("New(%s, SGX, switchless): %v", kind, err)
	}
	t.Cleanup(m.Stop)
	return m
}

// TestSwitchlessServesIdenticalAKAOutputs pins the ring path's crypto to
// the classic ECALL path bit-for-bit: the same-seed AV, SE derivation
// (RES*/K_SEAF), and K_AMF served through the switchless ring must equal
// the classic module's outputs. The ring changes how requests cross the
// boundary, never what they compute.
func TestSwitchlessServesIdenticalAKAOutputs(t *testing.T) {
	serve := func(switchless bool) (*UDMGenerateAVResponse, *AUSFDeriveSEResponse, *AMFDeriveKAMFResponse) {
		t.Helper()
		h := newHarness(t, 99)
		modules := make([]*Module, 0, 3)
		for _, kind := range []ModuleKind{EUDM, EAUSF, EAMF} {
			if switchless {
				modules = append(modules, h.switchlessModule(t, kind, 0))
			} else {
				modules = append(modules, h.module(t, kind, SGX))
			}
		}
		ctx := context.Background()
		if err := modules[0].ProvisionSubscriber(ctx, testSUPI, testK); err != nil {
			t.Fatalf("provision: %v", err)
		}
		var av UDMGenerateAVResponse
		if err := h.client.Post(ctx, EUDM.ServiceName(), PathUDMGenerateAV, avRequest(), &av); err != nil {
			t.Fatalf("GenerateAV: %v", err)
		}
		var se AUSFDeriveSEResponse
		if err := h.client.Post(ctx, EAUSF.ServiceName(), PathAUSFDeriveSE, &AUSFDeriveSERequest{
			RAND: av.RAND, XRESStar: av.XRESStar, KAUSF: av.KAUSF, SNN: testSNN,
		}, &se); err != nil {
			t.Fatalf("DeriveSE: %v", err)
		}
		var kamf AMFDeriveKAMFResponse
		if err := h.client.Post(ctx, EAMF.ServiceName(), PathAMFDeriveKAMF, &AMFDeriveKAMFRequest{
			KSEAF: se.KSEAF, SUPI: testSUPI, ABBA: []byte{0, 0},
		}, &kamf); err != nil {
			t.Fatalf("DeriveKAMF: %v", err)
		}
		for _, m := range modules {
			if touched := m.RingStats().Submitted > 0; touched != switchless {
				t.Fatalf("switchless=%v %s module: ring touched = %v", switchless, m.Kind(), touched)
			}
		}
		return &av, &se, &kamf
	}

	avC, seC, kamfC := serve(false)
	avS, seS, kamfS := serve(true)

	if !bytes.Equal(avC.RAND, avS.RAND) || !bytes.Equal(avC.AUTN, avS.AUTN) ||
		!bytes.Equal(avC.XRESStar, avS.XRESStar) || !bytes.Equal(avC.KAUSF, avS.KAUSF) {
		t.Fatal("switchless AV diverges from the classic path at the same seed")
	}
	if !bytes.Equal(seC.KSEAF, seS.KSEAF) || !bytes.Equal(seC.HXRESStar, seS.HXRESStar) {
		t.Fatal("switchless SE derivation (K_SEAF / HXRES*) diverges from the classic path")
	}
	if !bytes.Equal(kamfC.KAMF, kamfS.KAMF) {
		t.Fatal("switchless K_AMF diverges from the classic path")
	}
}

// TestSwitchlessManifestNeedsDispatcherTCS pins launchSGX's one TCS rule:
// the exitless helper, the batch ECALL slot and the ring dispatcher each
// need one thread beyond process+helpers, and any combination of them
// needs exactly that one (a ring module's refills ride the ring, never a
// batch ECALL).
func TestSwitchlessManifestNeedsDispatcherTCS(t *testing.T) {
	p, err := sgx.NewPlatform(sgx.PlatformConfig{Seed: 5})
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	_, signKey, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	for _, c := range []struct {
		name                          string
		exitless, reserve, switchless bool
		want                          int
	}{
		{"classic", false, false, false, gramine.HelperThreads + 1},
		{"exitless", true, false, false, gramine.HelperThreads + 2},
		{"batch", false, true, false, gramine.HelperThreads + 2},
		{"ring", false, false, true, gramine.HelperThreads + 2},
		{"ring+batch", false, true, true, gramine.HelperThreads + 2},
		{"all", true, true, true, gramine.HelperThreads + 2},
	} {
		inst, err := launchSGX(context.Background(), Config{
			Kind: EUDM, Platform: p, SignKey: signKey,
			Exitless: c.exitless, ReserveBatchTCS: c.reserve, Switchless: c.switchless,
		}, Profiles()[EUDM])
		if err != nil {
			t.Fatalf("%s: launch: %v", c.name, err)
		}
		if got := inst.Enclave().Config().MaxThreads; got != c.want {
			t.Errorf("%s: MaxThreads = %d, want %d", c.name, got, c.want)
		}
		if inst.Switchless() != c.switchless {
			t.Errorf("%s: Switchless() = %v", c.name, inst.Switchless())
		}
		inst.Shutdown()
	}
}

// TestCrossingAllocParity pins the removal of the closure-pair hack: one
// warm eAUSF DeriveSE allocates the same through a classic module and a
// ring module, and no more than the classic crossing did while the handler
// still travelled as a closure re-wrapped per layer (measured then:
// classic 5, ring 6). The plain container is held to the same figure: its
// per-request state is pooled like the enclave's, where the runtime it
// replaced boxed one Exec per request (5 then, 4 now).
func TestCrossingAllocParity(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items at random under the race detector")
	}
	const closureEraClassic = 5

	h := newHarness(t, 41)
	av, err := GenerateAV(testK, avRequest())
	if err != nil {
		t.Fatalf("GenerateAV: %v", err)
	}
	req := &AUSFDeriveSERequest{RAND: av.RAND, XRESStar: av.XRESStar, KAUSF: av.KAUSF, SNN: testSNN}

	// Requests carry their account, as every driver's do.
	ctx := simclock.WithAccount(context.Background(), &simclock.Account{})
	measure := func(m *Module) float64 {
		t.Helper()
		var se AUSFDeriveSEResponse
		post := func() {
			if err := h.client.Post(ctx, m.ServiceName(), PathAUSFDeriveSE, req, &se); err != nil {
				t.Fatalf("DeriveSE: %v", err)
			}
		}
		post() // warm the module and the pools, leave first contact behind
		return testing.AllocsPerRun(200, post)
	}

	classicModule, ringModule := h.module(t, EAUSF, SGX), h.switchlessModule(t, EAUSF, 1)
	classic, ring := measure(classicModule), measure(ringModule)
	if classicModule.RingStats().Submitted != 0 || ringModule.RingStats().Submitted == 0 {
		t.Fatalf("ring submissions: classic module %d, ring module %d; want 0 and some",
			classicModule.RingStats().Submitted, ringModule.RingStats().Submitted)
	}
	t.Logf("allocs per warm DeriveSE: classic %.0f, ring %.0f", classic, ring)
	if classic != ring {
		t.Errorf("classic crossing allocates %.0f, ring %.0f; the crossing must not change what a request allocates", classic, ring)
	}
	if classic > closureEraClassic {
		t.Errorf("classic crossing allocates %.0f, more than the %d of the closure-passing serve path", classic, closureEraClassic)
	}

	guest, err := New(context.Background(), Config{Kind: EAUSF, Isolation: Container,
		Env: h.env, Registry: h.registry, Replica: 2})
	if err != nil {
		t.Fatalf("New(container): %v", err)
	}
	t.Cleanup(guest.Stop)
	if container := measure(guest); container > classic {
		t.Errorf("container request allocates %.0f, the enclave's %.0f: the guest's per-request state must stay pooled", container, classic)
	}
}
