package ausf

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/crypto/kdf"
	"shield5g/internal/crypto/milenage"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/nf/nrf"
	"shield5g/internal/nf/udm"
	"shield5g/internal/nf/udr"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/sbi/codec"
)

var (
	testK   = bytes.Repeat([]byte{0x46}, 16)
	testSNN = "5G:mnc001.mcc001.3gppnetwork.org"
)

type harness struct {
	ausf   *AUSF
	client *Client
	hnKey  *suci.HomeNetworkKey
	mil    *milenage.Cipher
	supi   suci.SUPI
	// invokers are the SBI clients of the chain: the AMF's to the AUSF and
	// the AUSF's to the UDM and the eAUSF.
	invokers []*sbi.Client
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	env := costmodel.NewEnv(nil, 3)
	reg := sbi.NewRegistry()
	if _, err := nrf.New(env, reg); err != nil {
		t.Fatalf("nrf.New: %v", err)
	}
	if _, err := udr.New(env, reg); err != nil {
		t.Fatalf("udr.New: %v", err)
	}
	hnKey, err := suci.GenerateHomeNetworkKey(rand.Reader, 1)
	if err != nil {
		t.Fatalf("GenerateHomeNetworkKey: %v", err)
	}
	udmInvoker := sbi.NewClient("udm", env, reg)
	eudm := newModule(t, env, reg, paka.EUDM)
	if _, err := udm.New(context.Background(), udm.Config{
		Env: env, Registry: reg, Invoker: udmInvoker,
		Functions: paka.NewRemote(udmInvoker, env, eudm.ServiceName()), HomeNetworkKey: hnKey,
	}); err != nil {
		t.Fatalf("udm.New: %v", err)
	}
	ausfInvoker := sbi.NewClient("ausf", env, reg)
	a, err := New(context.Background(), Config{
		Env: env, Registry: reg, Invoker: ausfInvoker,
		Functions: paka.NewRemote(ausfInvoker, env, newModule(t, env, reg, paka.EAUSF).ServiceName()),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000000001"}
	opc, err := milenage.ComputeOPc(testK, make([]byte, 16))
	if err != nil {
		t.Fatalf("ComputeOPc: %v", err)
	}
	id, err := supi.Value()
	if err != nil {
		t.Fatalf("SUPI: %v", err)
	}
	if err := udr.NewClient(sbi.NewClient("prov", env, reg)).Provision(context.Background(), udr.Subscriber{
		SUPI: id, K: testK, OPc: opc,
		SQN: make([]byte, 6), AMFField: []byte{0x80, 0x00},
	}); err != nil {
		t.Fatalf("provision: %v", err)
	}
	if err := eudm.ProvisionSubscriber(context.Background(), supi.String(), testK); err != nil {
		t.Fatalf("eUDM provision: %v", err)
	}
	mil, err := milenage.New(testK, opc)
	if err != nil {
		t.Fatalf("milenage.New: %v", err)
	}
	amfInvoker := sbi.NewClient("amf", env, reg)
	return &harness{
		ausf:     a,
		client:   NewClientFor(amfInvoker, ServiceName),
		hnKey:    hnKey,
		mil:      mil,
		supi:     supi,
		invokers: []*sbi.Client{amfInvoker, ausfInvoker},
	}
}

// authCtxID is an auth-context ID the AUSF never minted.
func authCtxID(t *testing.T, text string) codec.AuthCtxID {
	t.Helper()
	var id codec.AuthCtxID
	if err := id.UnmarshalText([]byte(text)); err != nil {
		t.Fatal(err)
	}
	return id
}

// newModule deploys a container P-AKA module of kind on reg.
func newModule(t *testing.T, env *costmodel.Env, reg *sbi.Registry, kind paka.ModuleKind) *paka.Module {
	t.Helper()
	m, err := paka.New(context.Background(), paka.Config{Kind: kind, Isolation: paka.Container, Env: env, Registry: reg})
	if err != nil {
		t.Fatalf("paka.New(%s): %v", kind, err)
	}
	t.Cleanup(func() { m.Stop(context.Background()) })
	return m
}

// ueResStar computes the correct RES* the way the USIM would.
func (h *harness) ueResStar(t *testing.T, randBytes []byte) []byte {
	t.Helper()
	res, ck, ik, _, err := h.mil.F2345Into(make([]byte, 48), randBytes)
	if err != nil {
		t.Fatalf("F2345Into: %v", err)
	}
	resStar := make([]byte, kdf.KeyLen128)
	if err := kdf.ResStarInto(resStar, ck, ik, testSNN, randBytes, res); err != nil {
		t.Fatalf("derive RES*: %v", err)
	}
	return resStar
}

func TestAuthenticateAndConfirm(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()

	concealed, err := suci.Conceal(rand.Reader, h.supi, "0000", h.hnKey.PublicKey(), h.hnKey.ID)
	if err != nil {
		t.Fatalf("Conceal: %v", err)
	}
	auth, err := h.client.Authenticate(ctx, &AuthenticateRequest{SUCI: concealed, ServingNetworkName: testSNN})
	if err != nil {
		t.Fatalf("Authenticate: %v", err)
	}
	if auth.RAND == (codec.Bytes16{}) || auth.AUTN == (codec.Bytes16{}) || auth.HXRESStar == (codec.Bytes16{}) {
		t.Fatal("SE AV value missing")
	}
	if h.ausf.PendingSessions() != 1 {
		t.Fatalf("PendingSessions = %d", h.ausf.PendingSessions())
	}

	// The SEAF can verify HXRES* = SHA-256(RAND||RES*) high bits.
	resStar := h.ueResStar(t, auth.RAND[:])
	sum := sha256.Sum256(append(auth.RAND[:], resStar...))
	if !bytes.Equal(sum[:16], auth.HXRESStar[:]) {
		t.Fatal("HXRES* does not match RES* hash")
	}

	conf, err := h.client.Confirm(ctx, &ConfirmRequest{AuthCtxID: auth.AuthCtxID, ResStar: codec.Bytes16(resStar)})
	if err != nil {
		t.Fatalf("Confirm: %v", err)
	}
	if conf.SUPI.String() != h.supi.String() || len(conf.KSEAF) != 32 {
		t.Fatalf("Confirm = %+v", conf)
	}
	if h.ausf.PendingSessions() != 0 {
		t.Fatal("session not consumed")
	}
}

func TestConfirmRejectsWrongResStar(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	auth, err := h.client.Authenticate(ctx, &AuthenticateRequest{SUPI: h.supi.String(), ServingNetworkName: testSNN})
	if err != nil {
		t.Fatalf("Authenticate: %v", err)
	}
	_, err = h.client.Confirm(ctx, &ConfirmRequest{AuthCtxID: auth.AuthCtxID, ResStar: codec.Bytes16{}})
	var pd *sbi.ProblemDetails
	if !errors.As(err, &pd) || pd.Status != 403 {
		t.Fatalf("wrong RES* err = %v, want 403", err)
	}
	// The context is consumed even on failure (no oracle).
	if _, err := h.client.Confirm(ctx, &ConfirmRequest{AuthCtxID: auth.AuthCtxID, ResStar: codec.Bytes16{}}); !errors.As(err, &pd) || pd.Status != 404 {
		t.Fatalf("replayed confirm err = %v, want 404", err)
	}
}

func TestConfirmUnknownContext(t *testing.T) {
	h := newHarness(t)
	_, err := h.client.Confirm(context.Background(), &ConfirmRequest{AuthCtxID: authCtxID(t, "authctx-999")})
	var pd *sbi.ProblemDetails
	if !errors.As(err, &pd) || pd.Status != 404 {
		t.Fatalf("err = %v, want 404", err)
	}
}

func TestAuthenticateValidation(t *testing.T) {
	h := newHarness(t)
	_, err := h.client.Authenticate(context.Background(), &AuthenticateRequest{SUPI: h.supi.String()})
	var pd *sbi.ProblemDetails
	if !errors.As(err, &pd) || pd.Status != 400 {
		t.Fatalf("missing SNN err = %v, want 400", err)
	}
}

func TestResyncIssuesFreshChallenge(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	auth, err := h.client.Authenticate(ctx, &AuthenticateRequest{SUPI: h.supi.String(), ServingNetworkName: testSNN})
	if err != nil {
		t.Fatalf("Authenticate: %v", err)
	}

	// Build a valid AUTS reporting SQN_MS = 0x300.
	sqnMS := []byte{0, 0, 0, 0, 3, 0}
	akStar, err := h.mil.F5Star(auth.RAND[:])
	if err != nil {
		t.Fatalf("F5Star: %v", err)
	}
	concealed := make([]byte, 6)
	for i := range concealed {
		concealed[i] = sqnMS[i] ^ akStar[i]
	}
	macS, err := h.mil.F1Star(auth.RAND[:], sqnMS, []byte{0, 0})
	if err != nil {
		t.Fatalf("F1Star: %v", err)
	}

	fresh, err := h.client.Resync(ctx, &ResyncRequest{AuthCtxID: auth.AuthCtxID, AUTS: append(concealed, macS...)})
	if err != nil {
		t.Fatalf("Resync: %v", err)
	}
	if fresh.RAND == auth.RAND {
		t.Fatal("resync challenge reuses RAND")
	}
	if fresh.AuthCtxID == auth.AuthCtxID {
		t.Fatal("resync challenge reuses context ID")
	}

	// The fresh challenge completes.
	resStar := h.ueResStar(t, fresh.RAND[:])
	if _, err := h.client.Confirm(ctx, &ConfirmRequest{AuthCtxID: fresh.AuthCtxID, ResStar: codec.Bytes16(resStar)}); err != nil {
		t.Fatalf("Confirm after resync: %v", err)
	}
}

func TestResyncUnknownContext(t *testing.T) {
	h := newHarness(t)
	_, err := h.client.Resync(context.Background(), &ResyncRequest{AuthCtxID: authCtxID(t, "authctx-404"), AUTS: make([]byte, 14)})
	var pd *sbi.ProblemDetails
	if !errors.As(err, &pd) || pd.Status != 404 {
		t.Fatalf("err = %v, want 404", err)
	}
}

func TestNewValidation(t *testing.T) {
	env := costmodel.NewEnv(nil, 1)
	reg := sbi.NewRegistry()
	if _, err := New(context.Background(), Config{Registry: reg}); err == nil {
		t.Fatal("missing env accepted")
	}
	if _, err := New(context.Background(), Config{Env: env, Registry: reg, Invoker: sbi.NewClient("a", env, reg)}); err == nil {
		t.Fatal("missing functions accepted")
	}
}

func TestNewFailsWithoutUDMRegistered(t *testing.T) {
	env := costmodel.NewEnv(nil, 1)
	reg := sbi.NewRegistry()
	if _, err := nrf.New(env, reg); err != nil {
		t.Fatalf("nrf.New: %v", err)
	}
	// No UDM registered: NRF discovery must fail AUSF construction.
	inv := sbi.NewClient("ausf", env, reg)
	_, err := New(context.Background(), Config{
		Env: env, Registry: reg, Invoker: inv,
		Functions: paka.NewRemote(inv, env, paka.EAUSF.ServiceName()),
	})
	if err == nil {
		t.Fatal("AUSF constructed without a discoverable UDM")
	}
}

// TestHMEEAUSFRequiresHMEEUDM: the UDM an AUSF binds to — its own
// replica's — is resolved through the NRF on replica 0 and on every other,
// so an HMEE AUSF refuses a lower-trust UDM and any AUSF refuses one the
// repository does not list — at construction, not at the first
// registration.
func TestHMEEAUSFRequiresHMEEUDM(t *testing.T) {
	env := costmodel.NewEnv(nil, 1)
	reg := sbi.NewRegistry()
	if _, err := nrf.New(env, reg); err != nil {
		t.Fatalf("nrf.New: %v", err)
	}
	if _, err := udr.New(env, reg); err != nil {
		t.Fatalf("udr.New: %v", err)
	}
	hnKey, err := suci.GenerateHomeNetworkKey(rand.Reader, 1)
	if err != nil {
		t.Fatalf("GenerateHomeNetworkKey: %v", err)
	}
	// Two non-HMEE UDMs are registered: replicas 0 and 1.
	for r := range 2 {
		inv := sbi.NewClient("udm", env, reg)
		if _, err := udm.New(context.Background(), udm.Config{
			Env: env, Registry: reg, Invoker: inv,
			Functions: paka.NewRemote(inv, env, paka.EUDM.ServiceName()), HomeNetworkKey: hnKey, HMEE: false,
			Replica: r,
		}); err != nil {
			t.Fatalf("udm.New(replica %d): %v", r, err)
		}
	}
	// Only the last case constructs an AUSF, so the replica-1 server it
	// registers collides with no earlier one.
	for _, tc := range []struct {
		name    string
		hmee    bool
		replica int
		wantErr bool
	}{
		{"HMEE AUSF on replica 0, lower-trust UDM", true, 0, true},
		{"HMEE AUSF on replica 1, lower-trust UDM", true, 1, true},
		{"AUSF on a replica whose UDM the NRF does not list", false, 9, true},
		{"AUSF on a listed replica of its own trust domain", false, 1, false},
	} {
		inv := sbi.NewClient("ausf", env, reg)
		_, err := New(context.Background(), Config{
			Env: env, Registry: reg, Invoker: inv,
			Functions: paka.NewRemote(inv, env, paka.EAUSF.ServiceName()), HMEE: tc.hmee,
			Replica: tc.replica,
		})
		switch {
		case tc.wantErr && !sbi.HasCause(err, "TARGET_NF_NOT_FOUND"):
			t.Errorf("%s: err = %v, want TARGET_NF_NOT_FOUND", tc.name, err)
		case !tc.wantErr && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
