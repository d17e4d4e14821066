package udm

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/crypto/milenage"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/nf/nrf"
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
	env    *costmodel.Env
	udm    *UDM
	nrf    *nrf.Client
	client *Client
	hnKey  *suci.HomeNetworkKey
	eudm   *paka.Module
	udrc   *udr.Client
}

// newEUDM deploys a container eUDM module on reg and returns it with the
// UDM's client to it, which rides the UDM's own invoker — the deployment's
// shape, one SBI client per VNF.
func newEUDM(t *testing.T, env *costmodel.Env, reg *sbi.Registry, invoker sbi.Invoker) (*paka.Module, *paka.Remote) {
	t.Helper()
	m, err := paka.New(context.Background(), paka.Config{Kind: paka.EUDM, Isolation: paka.Container, Env: env, Registry: reg})
	if err != nil {
		t.Fatalf("paka.New: %v", err)
	}
	t.Cleanup(func() { m.Stop(context.Background()) })
	return m, paka.NewRemote(invoker, env, m.ServiceName())
}

func newHarness(t *testing.T) *harness {
	t.Helper()
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
	invoker := sbi.NewClient("udm", env, reg)
	eudm, fns := newEUDM(t, env, reg, invoker)
	u, err := New(context.Background(), Config{
		Env: env, Registry: reg, Invoker: invoker,
		Functions: fns, HomeNetworkKey: hnKey, HMEE: false,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &harness{
		env:    env,
		udm:    u,
		nrf:    nrf.NewClient(sbi.NewClient("test", env, reg)),
		client: NewClientFor(sbi.NewClient("ausf", env, reg), ServiceName),
		hnKey:  hnKey,
		eudm:   eudm,
		udrc:   udr.NewClient(sbi.NewClient("test", env, reg)),
	}
}

// value is supi as the SBI carries it.
func value(t testing.TB, supi suci.SUPI) codec.SUPI {
	t.Helper()
	v, err := supi.Value()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func (h *harness) provision(t *testing.T, supi suci.SUPI) {
	t.Helper()
	opc, err := milenage.ComputeOPc(testK, make([]byte, 16))
	if err != nil {
		t.Fatalf("ComputeOPc: %v", err)
	}
	if err := h.udrc.Provision(context.Background(), udr.Subscriber{
		SUPI: value(t, supi), K: testK, OPc: opc,
		SQN: make([]byte, 6), AMFField: []byte{0x80, 0x00},
	}); err != nil {
		t.Fatalf("udr provision: %v", err)
	}
	if err := h.eudm.ProvisionSubscriber(context.Background(), supi.String(), testK); err != nil {
		t.Fatalf("eUDM provision: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	env := costmodel.NewEnv(nil, 1)
	reg := sbi.NewRegistry()
	if _, err := New(context.Background(), Config{Registry: reg}); err == nil {
		t.Fatal("missing env accepted")
	}
	inv := sbi.NewClient("udm", env, reg)
	if _, err := New(context.Background(), Config{Env: env, Registry: reg, Invoker: inv}); err == nil {
		t.Fatal("missing functions accepted")
	}
	if _, err := New(context.Background(), Config{Env: env, Registry: reg, Invoker: inv, Functions: paka.NewRemote(inv, env, paka.EUDM.ServiceName())}); err == nil {
		t.Fatal("missing home network key accepted")
	}
}

func TestNewRegistersWithNRF(t *testing.T) {
	h := newHarness(t)
	p, err := h.nrf.Discover(context.Background(), NFType, ServiceName, false)
	if err != nil || p.Service != ServiceName {
		t.Fatalf("NRF discovery of the UDM = %+v, %v", p, err)
	}
}

func TestGenerateAuthDataFromSUCI(t *testing.T) {
	h := newHarness(t)
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000000001"}
	h.provision(t, supi)

	concealed, err := suci.Conceal(rand.Reader, supi, "0000", h.hnKey.PublicKey(), h.hnKey.ID)
	if err != nil {
		t.Fatalf("Conceal: %v", err)
	}
	resp, err := h.client.GenerateAuthData(context.Background(), &GenerateAuthDataRequest{
		SUCI: concealed, ServingNetworkName: testSNN,
	})
	if err != nil {
		t.Fatalf("GenerateAuthData: %v", err)
	}
	if resp.SUPI != value(t, supi) {
		t.Fatalf("SUPI = %s, want %s", resp.SUPI, supi.String())
	}
	if resp.RAND == (codec.Bytes16{}) || resp.AUTN == (codec.Bytes16{}) || resp.XRESStar == (codec.Bytes16{}) || resp.KAUSF == (codec.Bytes32{}) {
		t.Fatal("HE AV value missing")
	}
}

func TestGenerateAuthDataFreshRAND(t *testing.T) {
	h := newHarness(t)
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000000001"}
	h.provision(t, supi)
	a, err := h.client.GenerateAuthData(context.Background(), &GenerateAuthDataRequest{SUPI: supi.String(), ServingNetworkName: testSNN})
	if err != nil {
		t.Fatalf("GenerateAuthData: %v", err)
	}
	b, err := h.client.GenerateAuthData(context.Background(), &GenerateAuthDataRequest{SUPI: supi.String(), ServingNetworkName: testSNN})
	if err != nil {
		t.Fatalf("GenerateAuthData: %v", err)
	}
	if a.RAND == b.RAND {
		t.Fatal("two vectors share a RAND")
	}
	if a.AUTN == b.AUTN {
		t.Fatal("two vectors share an AUTN (SQN not advancing)")
	}
}

func TestGenerateAuthDataValidation(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	var pd *sbi.ProblemDetails
	if _, err := h.client.GenerateAuthData(ctx, &GenerateAuthDataRequest{ServingNetworkName: testSNN}); !errors.As(err, &pd) || pd.Status != 400 {
		t.Fatalf("no identity err = %v, want 400", err)
	}
	if _, err := h.client.GenerateAuthData(ctx, &GenerateAuthDataRequest{SUPI: "imsi-001010000000001"}); !errors.As(err, &pd) || pd.Status != 400 {
		t.Fatalf("no SNN err = %v, want 400", err)
	}
	if _, err := h.client.GenerateAuthData(ctx, &GenerateAuthDataRequest{SUPI: "imsi-999990000000001", ServingNetworkName: testSNN}); err == nil {
		t.Fatal("unknown SUPI accepted")
	}
	if _, err := h.client.GenerateAuthData(ctx, &GenerateAuthDataRequest{SUPI: "imsi-unknown", ServingNetworkName: testSNN}); !errors.As(err, &pd) || pd.Status != 400 {
		t.Fatalf("malformed SUPI err = %v, want 400", err)
	}
}

func TestGenerateAuthDataRejectsTamperedSUCI(t *testing.T) {
	h := newHarness(t)
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000000001"}
	h.provision(t, supi)
	concealed, err := suci.Conceal(rand.Reader, supi, "0000", h.hnKey.PublicKey(), h.hnKey.ID)
	if err != nil {
		t.Fatalf("Conceal: %v", err)
	}
	concealed.SchemeOutput[40] ^= 1
	_, err = h.client.GenerateAuthData(context.Background(), &GenerateAuthDataRequest{
		SUCI: concealed, ServingNetworkName: testSNN,
	})
	var pd *sbi.ProblemDetails
	if !errors.As(err, &pd) || pd.Status != 403 {
		t.Fatalf("tampered SUCI err = %v, want 403", err)
	}
}

func TestResyncFlow(t *testing.T) {
	h := newHarness(t)
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000000001"}
	h.provision(t, supi)

	// Build a valid AUTS for SQN_MS well ahead of the network.
	opc, err := milenage.ComputeOPc(testK, make([]byte, 16))
	if err != nil {
		t.Fatalf("ComputeOPc: %v", err)
	}
	mil, err := milenage.New(testK, opc)
	if err != nil {
		t.Fatalf("milenage.New: %v", err)
	}
	randBytes := bytes.Repeat([]byte{0x5c}, 16)
	sqnMS := []byte{0, 0, 0, 2, 0, 0}
	akStar, err := mil.F5Star(randBytes)
	if err != nil {
		t.Fatalf("F5Star: %v", err)
	}
	concealed := make([]byte, 6)
	for i := range concealed {
		concealed[i] = sqnMS[i] ^ akStar[i]
	}
	macS, err := mil.F1Star(randBytes, sqnMS, []byte{0, 0})
	if err != nil {
		t.Fatalf("F1Star: %v", err)
	}
	auts := append(concealed, macS...)

	if err := h.client.Resync(context.Background(), &ResyncRequest{
		SUPI: value(t, supi), RAND: randBytes, AUTS: auts,
	}); err != nil {
		t.Fatalf("Resync: %v", err)
	}

	// The next vector must carry an SQN above the UE's.
	sub, err := h.udrc.Get(context.Background(), value(t, supi))
	if err != nil {
		t.Fatalf("udr.Get: %v", err)
	}
	if !bytes.Equal(sub.SQN[:3], []byte{0, 0, 0}) && sub.SQN[3] < 2 {
		t.Fatalf("SQN not rebased: %x", sub.SQN)
	}

	// A corrupted AUTS is rejected.
	auts[13] ^= 1
	err = h.client.Resync(context.Background(), &ResyncRequest{SUPI: value(t, supi), RAND: randBytes, AUTS: auts})
	var pd *sbi.ProblemDetails
	if !errors.As(err, &pd) || pd.Status != 403 {
		t.Fatalf("bad AUTS err = %v, want 403", err)
	}
}
