package paka

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/crypto/kdf"
	"shield5g/internal/crypto/milenage"
	"shield5g/internal/hmee/sev"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/sbi"
	"shield5g/internal/sbi/codec"
)

var (
	testK    = []byte{0x46, 0x5b, 0x5c, 0xe8, 0xb1, 0x99, 0xb4, 0x9f, 0xaa, 0x5f, 0x0a, 0x2e, 0xe2, 0x38, 0xa6, 0xbc}
	testOPc  = []byte{0xcd, 0x63, 0xcb, 0x71, 0x95, 0x4a, 0x9f, 0x4e, 0x48, 0xa5, 0x99, 0x4e, 0x37, 0xa0, 0x2b, 0xaf}
	testRAND = []byte{0x23, 0x55, 0x3c, 0xbe, 0x96, 0x37, 0xa8, 0x9d, 0x21, 0x8a, 0xe6, 0x4d, 0xae, 0x47, 0xbf, 0x35}
	testSQN  = []byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x21}
	testAMF  = []byte{0x80, 0x00}
	testSNN  = "5G:mnc001.mcc001.3gppnetwork.org"
	testSUPI = "imsi-001010000000001"
)

func avRequest() *UDMGenerateAVRequest {
	return &UDMGenerateAVRequest{
		SUPI:  testSUPI,
		OPc:   testOPc,
		RAND:  testRAND,
		SQN:   testSQN,
		AMFID: testAMF,
		SNN:   testSNN,
	}
}

func TestGenerateAVMatchesDirectDerivation(t *testing.T) {
	resp, err := GenerateAV(testK, avRequest())
	if err != nil {
		t.Fatalf("GenerateAV: %v", err)
	}
	if !bytes.Equal(resp.RAND[:], testRAND) {
		t.Fatalf("RAND = %x, want %x", resp.RAND, testRAND)
	}

	// Re-derive with the primitives and compare.
	c, err := milenage.New(testK, testOPc)
	if err != nil {
		t.Fatalf("milenage.New: %v", err)
	}
	res, ck, ik, ak, err := c.F2345Into(make([]byte, 48), testRAND)
	if err != nil {
		t.Fatalf("F2345Into: %v", err)
	}
	sqnAK, err := kdf.XorSQNAK(testSQN, ak)
	if err != nil {
		t.Fatalf("XorSQNAK: %v", err)
	}
	wantXRES := make([]byte, kdf.KeyLen128)
	if err := kdf.ResStarInto(wantXRES, ck, ik, testSNN, testRAND, res); err != nil {
		t.Fatalf("ResStarInto: %v", err)
	}
	if !bytes.Equal(resp.XRESStar[:], wantXRES) {
		t.Fatal("XRES* mismatch")
	}
	wantKAUSF := make([]byte, kdf.KeyLen256)
	if err := kdf.KAUSFInto(wantKAUSF, ck, ik, testSNN, sqnAK); err != nil {
		t.Fatalf("KAUSFInto: %v", err)
	}
	if !bytes.Equal(resp.KAUSF[:], wantKAUSF) {
		t.Fatal("K_AUSF mismatch")
	}
	// AUTN structure: SQN^AK || AMF || MAC-A.
	gotSQNAK, gotAMF, _, err := kdf.SplitAUTN(resp.AUTN[:])
	if err != nil {
		t.Fatalf("SplitAUTN: %v", err)
	}
	if !bytes.Equal(gotSQNAK, sqnAK) || !bytes.Equal(gotAMF, testAMF) {
		t.Fatal("AUTN structure wrong")
	}
}

func TestGenerateAVBadInputs(t *testing.T) {
	req := avRequest()
	req.OPc = req.OPc[:8]
	if _, err := GenerateAV(testK, req); err == nil {
		t.Fatal("short OPc accepted")
	}
	req = avRequest()
	req.SQN = nil
	if _, err := GenerateAV(testK, req); err == nil {
		t.Fatal("nil SQN accepted")
	}
	if _, err := GenerateAV(testK[:4], avRequest()); err == nil {
		t.Fatal("short K accepted")
	}
}

func TestResyncRoundTrip(t *testing.T) {
	// Build an AUTS the way a UE would (TS 33.102 §6.3.3).
	c, err := milenage.New(testK, testOPc)
	if err != nil {
		t.Fatalf("milenage.New: %v", err)
	}
	sqnMS := []byte{0x00, 0x00, 0x00, 0x00, 0x01, 0x42}
	akStar, err := c.F5Star(testRAND)
	if err != nil {
		t.Fatalf("F5Star: %v", err)
	}
	concealed, err := kdf.XorSQNAK(sqnMS, akStar)
	if err != nil {
		t.Fatalf("XorSQNAK: %v", err)
	}
	macS, err := c.F1Star(testRAND, sqnMS, []byte{0, 0})
	if err != nil {
		t.Fatalf("F1Star: %v", err)
	}
	auts := append(append([]byte{}, concealed...), macS...)

	resp, err := Resync(testK, &UDMResyncRequest{SUPI: testSUPI, OPc: testOPc, RAND: testRAND, AUTS: auts})
	if err != nil {
		t.Fatalf("Resync: %v", err)
	}
	if !bytes.Equal(resp.SQNMS, sqnMS) {
		t.Fatalf("SQN_MS = %x, want %x", resp.SQNMS, sqnMS)
	}

	// Tampered AUTS must fail.
	auts[13] ^= 1
	if _, err := Resync(testK, &UDMResyncRequest{SUPI: testSUPI, OPc: testOPc, RAND: testRAND, AUTS: auts}); !errors.Is(err, ErrResyncMAC) {
		t.Fatalf("tampered AUTS err = %v, want ErrResyncMAC", err)
	}
	if _, err := Resync(testK, &UDMResyncRequest{OPc: testOPc, RAND: testRAND, AUTS: auts[:10]}); err == nil {
		t.Fatal("short AUTS accepted")
	}
}

func TestDeriveSEAndKAMFChain(t *testing.T) {
	av, err := GenerateAV(testK, avRequest())
	if err != nil {
		t.Fatalf("GenerateAV: %v", err)
	}
	se, err := DeriveSE(&AUSFDeriveSERequest{RAND: av.RAND, XRESStar: av.XRESStar, KAUSF: av.KAUSF, SNN: testSNN})
	if err != nil {
		t.Fatalf("DeriveSE: %v", err)
	}
	wantHX := make([]byte, kdf.KeyLen128)
	if err := kdf.HXResStarInto(wantHX, av.RAND[:], av.XRESStar[:]); err != nil {
		t.Fatalf("HXResStarInto: %v", err)
	}
	if !bytes.Equal(se.HXRESStar[:], wantHX) {
		t.Fatal("HXRES* mismatch")
	}

	amf, err := DeriveKAMF(&AMFDeriveKAMFRequest{KSEAF: se.KSEAF, SUPI: testSUPI, ABBA: []byte{0, 0}})
	if err != nil {
		t.Fatalf("DeriveKAMF: %v", err)
	}
	wantKAMF := make([]byte, kdf.KeyLen256)
	if err := kdf.KAMFInto(wantKAMF, se.KSEAF[:], testSUPI, []byte{0, 0}); err != nil {
		t.Fatalf("KAMFInto: %v", err)
	}
	if !bytes.Equal(amf.KAMF[:], wantKAMF) {
		t.Fatal("K_AMF mismatch")
	}
}

// --- module deployment tests ---

type harness struct {
	env      *costmodel.Env
	platform *sgx.Platform
	sevHost  *sev.Platform
	registry *sbi.Registry
	client   *sbi.Client
}

func newHarness(t *testing.T, seed uint64) *harness {
	t.Helper()
	env := costmodel.NewEnv(nil, seed)
	p, err := sgx.NewPlatform(sgx.PlatformConfig{Seed: seed})
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	reg := sbi.NewRegistry()
	return &harness{
		env:      env,
		platform: p,
		sevHost:  sev.NewPlatform(),
		registry: reg,
		client:   sbi.NewClient("udm", env, reg),
	}
}

func (h *harness) module(t *testing.T, kind ModuleKind, iso Isolation) *Module {
	t.Helper()
	m, err := New(context.Background(), Config{
		Kind:      kind,
		Isolation: iso,
		Env:       h.env,
		Platform:  h.platform,
		SEVHost:   h.sevHost,
		Registry:  h.registry,
	})
	if err != nil {
		t.Fatalf("New(%s, %s): %v", kind, iso, err)
	}
	t.Cleanup(m.Stop)
	return m
}

func TestModuleConfigValidation(t *testing.T) {
	h := newHarness(t, 1)
	if _, err := New(context.Background(), Config{Kind: ModuleKind(99), Isolation: Container, Env: h.env, Registry: h.registry}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := New(context.Background(), Config{Kind: EUDM, Isolation: Container, Registry: h.registry}); err == nil {
		t.Fatal("nil env accepted")
	}
	if _, err := New(context.Background(), Config{Kind: EUDM, Isolation: Container, Env: h.env}); err == nil {
		t.Fatal("nil registry accepted")
	}
	if _, err := New(context.Background(), Config{Kind: EUDM, Isolation: SGX, Env: h.env, Registry: h.registry}); err == nil {
		t.Fatal("SGX without platform accepted")
	}
	if _, err := New(context.Background(), Config{Kind: EUDM, Isolation: SEV, Env: h.env, Registry: h.registry}); err == nil {
		t.Fatal("SEV without host accepted")
	}
	if _, err := New(context.Background(), Config{Kind: EUDM, Env: h.env, Registry: h.registry}); err == nil {
		t.Fatal("module without an isolation mode accepted")
	}
	// Thread counts below Gramine's minimum must be rejected.
	if _, err := New(context.Background(), Config{Kind: EUDM, Isolation: SGX, Env: h.env, Platform: h.platform, Registry: h.registry, MaxThreads: 2}); err == nil {
		t.Fatal("2-thread SGX module accepted")
	}
}

func TestEUDMModuleEndToEnd(t *testing.T) {
	for _, iso := range []Isolation{Container, SGX} {
		t.Run(iso.String(), func(t *testing.T) {
			h := newHarness(t, 2)
			m := h.module(t, EUDM, iso)
			if err := m.ProvisionSubscriber(context.Background(), testSUPI, testK); err != nil {
				t.Fatalf("ProvisionSubscriber: %v", err)
			}
			udm := NewRemote(h.client, h.env, EUDM.ServiceName())
			resp, err := udm.GenerateAV(context.Background(), avRequest())
			if err != nil {
				t.Fatalf("GenerateAV: %v", err)
			}
			want, err := GenerateAV(testK, avRequest())
			if err != nil {
				t.Fatalf("direct GenerateAV: %v", err)
			}
			if resp.XRESStar != want.XRESStar || resp.KAUSF != want.KAUSF {
				t.Fatal("module output differs from direct derivation")
			}
			if m.FunctionalLatency().N() != 1 || m.TotalLatency().N() != 1 {
				t.Fatal("latency recorders not fed")
			}
			if udm.Response().Initial.N() != 1 {
				t.Fatal("initial response not recorded")
			}
		})
	}
}

func TestEUDMUnknownSubscriber(t *testing.T) {
	h := newHarness(t, 3)
	h.module(t, EUDM, Container)
	udm := NewRemote(h.client, h.env, EUDM.ServiceName())
	_, err := udm.GenerateAV(context.Background(), avRequest())
	var pd *sbi.ProblemDetails
	if !errors.As(err, &pd) || pd.Status != 404 {
		t.Fatalf("err = %v, want 404", err)
	}
}

func TestModuleMemoryDumpContainerLeaksSGXDoesNot(t *testing.T) {
	h := newHarness(t, 4)

	plain := h.module(t, EUDM, Container)
	if err := plain.ProvisionSubscriber(context.Background(), testSUPI, testK); err != nil {
		t.Fatalf("provision: %v", err)
	}
	dump := plain.MemoryDump()
	if len(dump) != 1 {
		t.Fatalf("container dump regions = %d", len(dump))
	}
	for _, data := range dump {
		if !bytes.Equal(data, testK) {
			t.Fatal("container dump should reveal the plaintext key")
		}
	}
	plain.Stop()

	h2 := newHarness(t, 5)
	shielded := h2.module(t, EUDM, SGX)
	if err := shielded.ProvisionSubscriber(context.Background(), testSUPI, testK); err != nil {
		t.Fatalf("provision: %v", err)
	}
	for _, data := range shielded.MemoryDump() {
		if bytes.Equal(data, testK) || bytes.Contains(data, testK[:8]) {
			t.Fatal("SGX dump leaked the plaintext key")
		}
	}
	if shielded.Enclave() == nil {
		t.Fatal("SGX module has no enclave handle")
	}
	if plainEnclave := plain.Enclave(); plainEnclave != nil {
		t.Fatal("container module has an enclave handle")
	}
}

func TestProvisionOnNonUDMModuleFails(t *testing.T) {
	h := newHarness(t, 6)
	m := h.module(t, EAUSF, Container)
	if err := m.ProvisionSubscriber(context.Background(), testSUPI, testK); err == nil {
		t.Fatal("provisioning into eAUSF accepted")
	}
}

func TestAUSFAndAMFModulesServe(t *testing.T) {
	h := newHarness(t, 7)
	h.module(t, EAUSF, SGX)
	h.module(t, EAMF, SGX)

	av, err := GenerateAV(testK, avRequest())
	if err != nil {
		t.Fatalf("GenerateAV: %v", err)
	}
	ausf := NewRemote(h.client, h.env, EAUSF.ServiceName())
	se, err := ausf.DeriveSE(context.Background(), &AUSFDeriveSERequest{RAND: av.RAND, XRESStar: av.XRESStar, KAUSF: av.KAUSF, SNN: testSNN})
	if err != nil {
		t.Fatalf("DeriveSE: %v", err)
	}
	amf := NewRemote(h.client, h.env, EAMF.ServiceName())
	kamf, err := amf.DeriveKAMF(context.Background(), &AMFDeriveKAMFRequest{KSEAF: se.KSEAF, SUPI: testSUPI, ABBA: []byte{0, 0}})
	if err != nil {
		t.Fatalf("DeriveKAMF: %v", err)
	}
	if kamf.KAMF == (codec.Bytes32{}) {
		t.Fatal("K_AMF missing")
	}
}

func TestKindAndIsolationStrings(t *testing.T) {
	if EUDM.String() != "eUDM" || EAUSF.String() != "eAUSF" || EAMF.String() != "eAMF" {
		t.Fatal("kind names wrong")
	}
	if ModuleKind(0).String() != "unknown" || ModuleKind(0).ServiceName() != "unknown-paka" {
		t.Fatal("unknown kind names wrong")
	}
	if Container.String() != "container" || SGX.String() != "sgx" || SEV.String() != "sev" {
		t.Fatal("isolation names wrong")
	}
	// The module experiments seed from these values: they never move.
	if Container != 2 || SGX != 3 || SEV != 4 {
		t.Fatalf("isolation values %d/%d/%d, want 2/3/4", Container, SGX, SEV)
	}
	if Isolation(1).String() != "unknown" || Isolation(9).String() != "unknown" {
		t.Fatal("unknown isolation name wrong")
	}
	if len(Kinds()) != 3 {
		t.Fatal("Kinds() wrong")
	}
}

// TestParseIsolationRoundTrip: every mode's name parses back to the mode
// (sev included — gnbsim used to reject it), and nothing else parses.
func TestParseIsolationRoundTrip(t *testing.T) {
	for _, iso := range []Isolation{Container, SGX, SEV} {
		got, err := ParseIsolation(iso.String())
		if err != nil || got != iso {
			t.Errorf("ParseIsolation(%q) = %v, %v; want %v", iso.String(), got, err, iso)
		}
	}
	for _, name := range []string{"unknown", "", "SGX", "tdx", "monolithic"} {
		if got, err := ParseIsolation(name); err == nil {
			t.Errorf("ParseIsolation(%q) = %v, want an error", name, got)
		}
	}
}

func TestModuleAccessors(t *testing.T) {
	h := newHarness(t, 9)
	m := h.module(t, EUDM, SGX)
	if m.Kind() != EUDM || m.Isolation() != SGX || m.ServiceName() != "eudm-paka" {
		t.Fatal("accessors wrong")
	}
	if m.Profile().InBytes != 40 {
		t.Fatal("profile not exposed")
	}
	if m.Warm() {
		t.Fatal("module warm before first request")
	}
	if m.LoadDuration() <= 0 {
		t.Fatal("no load duration")
	}
	m.AccrueUptime(0)
	m.ResetRecorders()
}
