package paka

import (
	"bytes"
	"context"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
)

// switchlessModule deploys an SGX module with the switchless ECALL ring
// negotiated into its manifest.
func (h *harness) switchlessModule(t *testing.T, kind ModuleKind) *Module {
	t.Helper()
	m, err := New(context.Background(), Config{
		Kind:       kind,
		Isolation:  SGX,
		Env:        h.env,
		Platform:   h.platform,
		Registry:   h.registry,
		Switchless: true,
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
		var udm, ausf, amf *Module
		if switchless {
			udm = h.switchlessModule(t, EUDM)
			ausf = h.switchlessModule(t, EAUSF)
			amf = h.switchlessModule(t, EAMF)
		} else {
			udm = h.module(t, EUDM, SGX)
			ausf = h.module(t, EAUSF, SGX)
			amf = h.module(t, EAMF, SGX)
		}
		_ = udm
		ctx := context.Background()
		if switchless {
			ctx = WithSwitchless(ctx)
		}
		if err := udm.ProvisionSubscriber(context.Background(), testSUPI, testK); err != nil {
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
		if switchless {
			for _, m := range []*Module{udm, ausf, amf} {
				if st := m.RingStats(); st.Submitted == 0 {
					t.Fatalf("switchless %s module served without touching its ring", m.Kind())
				}
			}
		} else {
			_ = ausf
			_ = amf
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

// TestSwitchlessManifestNeedsDispatcherTCS pins the TCS arithmetic: a
// switchless module reserves one thread beyond the classic layout for the
// dispatcher, and the manifest validation rejects budgets without it.
func TestSwitchlessManifestNeedsDispatcherTCS(t *testing.T) {
	env := costmodel.NewEnv(nil, 5)
	p, err := sgx.NewPlatform(sgx.PlatformConfig{Seed: 5})
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	m, err := New(context.Background(), Config{
		Kind: EUDM, Isolation: SGX, Env: env, Platform: p,
		Registry: sbi.NewRegistry(), Switchless: true,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer m.Stop()
	// One long-lived EENTER beyond process+helpers pins the dispatcher TCS.
	if got := m.Enclave().Config().MaxThreads; got < 5 {
		t.Fatalf("switchless module MaxThreads = %d, want >= 5 (dispatcher TCS)", got)
	}
}

// TestCrossingAllocParity pins the removal of the closure-pair hack: one
// warm eAUSF DeriveSE through the module endpoint allocates the same on
// the classic and the ring crossing, and no more than the classic crossing
// did while the handler still travelled as a closure re-wrapped per layer
// (measured then: classic 5, ring 6). The plain container is held to the
// same figure: its per-request state is pooled like the enclave's, where
// the runtime it replaced boxed one Exec per request (5 then, 4 now).
func TestCrossingAllocParity(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items at random under the race detector")
	}
	const closureEraClassic = 5

	h := newHarness(t, 41)
	m := h.switchlessModule(t, EAUSF)
	av, err := GenerateAV(testK, avRequest())
	if err != nil {
		t.Fatalf("GenerateAV: %v", err)
	}
	req := &AUSFDeriveSERequest{RAND: av.RAND, XRESStar: av.XRESStar, KAUSF: av.KAUSF, SNN: testSNN}

	service := m.ServiceName()
	measure := func(ctx context.Context) float64 {
		t.Helper()
		var se AUSFDeriveSEResponse
		post := func() {
			if err := h.client.Post(ctx, service, PathAUSFDeriveSE, req, &se); err != nil {
				t.Fatalf("DeriveSE: %v", err)
			}
		}
		post() // warm the module and the pools, leave first contact behind
		return testing.AllocsPerRun(200, post)
	}

	// Requests carry their account, as every driver's do.
	ctx := simclock.WithAccount(context.Background(), &simclock.Account{})
	classic := measure(ctx)
	before := m.RingStats().Submitted
	ring := measure(WithSwitchless(ctx))
	if m.RingStats().Submitted == before {
		t.Fatal("ring crossing never touched the ring")
	}
	t.Logf("allocs per warm DeriveSE: classic %.0f, ring %.0f", classic, ring)
	if classic != ring {
		t.Errorf("classic crossing allocates %.0f, ring %.0f; the crossing must not change what a request allocates", classic, ring)
	}
	if classic > closureEraClassic {
		t.Errorf("classic crossing allocates %.0f, more than the %d of the closure-passing serve path", classic, closureEraClassic)
	}

	guest, err := New(context.Background(), Config{Kind: EAUSF, Isolation: Container,
		Env: h.env, Registry: h.registry, Service: "eausf-guest"})
	if err != nil {
		t.Fatalf("New(container): %v", err)
	}
	t.Cleanup(guest.Stop)
	service = guest.ServiceName()
	if container := measure(ctx); container > classic {
		t.Errorf("container request allocates %.0f, the enclave's %.0f: the guest's per-request state must stay pooled", container, classic)
	}
}
