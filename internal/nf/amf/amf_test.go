package amf_test

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/base64"
	"errors"
	"fmt"
	"strings"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/crypto/milenage"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/nas"
	"shield5g/internal/nf/amf"
	"shield5g/internal/nf/ausf"
	"shield5g/internal/nf/nrf"
	"shield5g/internal/nf/smf"
	"shield5g/internal/nf/udm"
	"shield5g/internal/nf/udr"
	"shield5g/internal/nf/upf"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/sbi/codec"
	"shield5g/internal/ue"
)

var testK = bytes.Repeat([]byte{0x46}, 16)

type harness struct {
	amf   *amf.AMF
	hnKey *suci.HomeNetworkKey
	env   *costmodel.Env
	reg   *sbi.Registry
	supi  suci.SUPI
	opc   []byte
	// provision adds a subscriber to the UDR and the UDM's key store.
	provision func(t *testing.T, supi suci.SUPI)
}

func newHarness(t *testing.T) *harness { return newHarnessWith(t, nil) }

// newHarnessWith builds the harness with the AMF's SBI invoker passed
// through wrap, when it is set.
func newHarnessWith(t *testing.T, wrap func(sbi.Invoker) sbi.Invoker) *harness {
	t.Helper()
	ctx := context.Background()
	env := costmodel.NewEnv(nil, 5)
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
	eudm := newModule(t, env, reg, paka.EUDM)
	udmInvoker := sbi.NewClient("udm", env, reg)
	if _, err := udm.New(ctx, udm.Config{
		Env: env, Registry: reg, Invoker: udmInvoker,
		Functions: paka.NewRemote(udmInvoker, env, eudm.ServiceName()), HomeNetworkKey: hnKey,
	}); err != nil {
		t.Fatalf("udm.New: %v", err)
	}
	ausfInvoker := sbi.NewClient("ausf", env, reg)
	if _, err := ausf.New(ctx, ausf.Config{
		Env: env, Registry: reg, Invoker: ausfInvoker,
		Functions: paka.NewRemote(ausfInvoker, env, newModule(t, env, reg, paka.EAUSF).ServiceName()),
	}); err != nil {
		t.Fatalf("ausf.New: %v", err)
	}
	if _, err := upf.New(env, reg); err != nil {
		t.Fatalf("upf.New: %v", err)
	}
	if _, err := smf.New(ctx, smf.Config{Env: env, Registry: reg, Invoker: sbi.NewClient("smf", env, reg)}); err != nil {
		t.Fatalf("smf.New: %v", err)
	}
	var amfInvoker sbi.Invoker = sbi.NewClient("amf", env, reg)
	if wrap != nil {
		amfInvoker = wrap(amfInvoker)
	}
	a, err := amf.New(ctx, amf.Config{
		Invoker:   amfInvoker,
		Functions: paka.NewRemote(amfInvoker, env, newModule(t, env, reg, paka.EAMF).ServiceName()),
		MCC:       "001", MNC: "01",
	})
	if err != nil {
		t.Fatalf("amf.New: %v", err)
	}

	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000000001"}
	opc, err := milenage.ComputeOPc(testK, make([]byte, 16))
	if err != nil {
		t.Fatalf("ComputeOPc: %v", err)
	}
	prov := udr.NewClient(sbi.NewClient("prov", env, reg))
	provision := func(t *testing.T, supi suci.SUPI) {
		t.Helper()
		id, err := supi.Value()
		if err != nil {
			t.Fatalf("SUPI: %v", err)
		}
		if err := prov.Provision(ctx, udr.Subscriber{
			SUPI: id, K: testK, OPc: opc,
			SQN: make([]byte, 6), AMFField: []byte{0x80, 0x00},
		}); err != nil {
			t.Fatalf("provision: %v", err)
		}
		if err := eudm.ProvisionSubscriber(ctx, supi.String(), testK); err != nil {
			t.Fatalf("eUDM provision: %v", err)
		}
	}
	provision(t, supi)
	return &harness{amf: a, hnKey: hnKey, env: env, reg: reg, supi: supi, opc: opc, provision: provision}
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

func (h *harness) device(t *testing.T) *ue.UE { return h.deviceOf(t, h.supi) }

// deviceOf returns a device of an already provisioned subscriber.
func (h *harness) deviceOf(t *testing.T, supi suci.SUPI) *ue.UE {
	t.Helper()
	d, err := ue.New(ue.Config{
		SUPI: supi, K: testK, OPc: h.opc,
		HomeNetworkPublicKey: h.hnKey.PublicKey(),
		HomeNetworkKeyID:     h.hnKey.ID,
		Env:                  h.env,
	})
	if err != nil {
		t.Fatalf("ue.New: %v", err)
	}
	return d
}

// register drives the NAS exchange directly against the AMF.
func (h *harness) register(t *testing.T, device *ue.UE, ranUEID uint64) {
	t.Helper()
	up, err := device.BuildRegistrationRequest(context.Background(), h.amf.ServingNetworkName())
	if err != nil {
		t.Fatalf("BuildRegistrationRequest: %v", err)
	}
	h.exchange(t, device, ranUEID, up, false)
}

// reregister drives a GUTI mobility registration; with loseComplete the
// UE's closing RegistrationComplete never reaches the AMF.
func (h *harness) reregister(t *testing.T, device *ue.UE, ranUEID uint64, loseComplete bool) {
	t.Helper()
	up, err := device.BuildReRegistrationRequest(context.Background(), h.amf.ServingNetworkName())
	if err != nil {
		t.Fatalf("BuildReRegistrationRequest: %v", err)
	}
	h.exchange(t, device, ranUEID, up, loseComplete)
}

func (h *harness) exchange(t *testing.T, device *ue.UE, ranUEID uint64, up []byte, loseComplete bool) {
	t.Helper()
	ctx := context.Background()
	down, err := h.amf.HandleInitialUE(ctx, ranUEID, up)
	if err != nil {
		t.Fatalf("HandleInitialUE: %v", err)
	}
	for i := 0; i < 8; i++ {
		uplink, done, err := device.HandleDownlinkNAS(ctx, down)
		if err != nil {
			t.Fatalf("UE NAS: %v", err)
		}
		if uplink == nil || done && loseComplete {
			return
		}
		down, err = h.amf.HandleUplinkNAS(ctx, ranUEID, uplink)
		if err != nil {
			t.Fatalf("HandleUplinkNAS: %v", err)
		}
		if down == nil || done {
			return
		}
	}
	t.Fatal("registration did not converge")
}

func TestAMFConfigValidation(t *testing.T) {
	env := costmodel.NewEnv(nil, 1)
	reg := sbi.NewRegistry()
	inv := sbi.NewClient("amf", env, reg)
	fns := paka.NewRemote(inv, env, paka.EAMF.ServiceName())
	if _, err := amf.New(context.Background(), amf.Config{Functions: fns, MCC: "001", MNC: "01"}); err == nil {
		t.Fatal("missing invoker accepted")
	}
	if _, err := amf.New(context.Background(), amf.Config{Invoker: inv, MCC: "001", MNC: "01"}); err == nil {
		t.Fatal("missing functions accepted")
	}
	if _, err := amf.New(context.Background(), amf.Config{Invoker: inv, Functions: fns}); err == nil {
		t.Fatal("missing PLMN accepted")
	}
}

// TestHMEEAMFRequiresHMEEAUSF: the AUSF an AMF binds to — its own
// replica's — is resolved through the NRF on replica 0 and on every other,
// so an HMEE AMF refuses a lower-trust AUSF and any AMF refuses one the
// repository does not list — at construction, not at the first
// registration.
func TestHMEEAMFRequiresHMEEAUSF(t *testing.T) {
	h := newHarness(t) // a non-HMEE replica-0 chain, and the SMF every AMF discovers
	ctx := context.Background()
	env, reg := h.env, h.reg
	// A non-HMEE replica-1 AUSF, bound to its own replica's UDM.
	udmInvoker := sbi.NewClient("udm", env, reg)
	if _, err := udm.New(ctx, udm.Config{
		Env: env, Registry: reg, Invoker: udmInvoker,
		Functions: paka.NewRemote(udmInvoker, env, paka.EUDM.ServiceName()), HomeNetworkKey: h.hnKey, Replica: 1,
	}); err != nil {
		t.Fatalf("udm.New(replica 1): %v", err)
	}
	ausfInvoker := sbi.NewClient("ausf", env, reg)
	if _, err := ausf.New(ctx, ausf.Config{
		Env: env, Registry: reg, Invoker: ausfInvoker,
		Functions: paka.NewRemote(ausfInvoker, env, paka.EAUSF.ServiceName()), Replica: 1,
	}); err != nil {
		t.Fatalf("ausf.New(replica 1): %v", err)
	}
	for _, tc := range []struct {
		name    string
		hmee    bool
		replica int
		wantErr bool
	}{
		{"HMEE AMF on replica 0, lower-trust AUSF", true, 0, true},
		{"HMEE AMF on replica 1, lower-trust AUSF", true, 1, true},
		{"AMF on a replica whose AUSF the NRF does not list", false, 9, true},
		{"AMF on a listed replica of its own trust domain", false, 1, false},
	} {
		inv := sbi.NewClient("amf", env, reg)
		_, err := amf.New(ctx, amf.Config{
			Invoker:   inv,
			Functions: paka.NewRemote(inv, env, paka.EAMF.ServiceName()), MCC: "001", MNC: "01",
			HMEE: tc.hmee, Replica: tc.replica,
		})
		switch {
		case tc.wantErr && !sbi.HasCause(err, "TARGET_NF_NOT_FOUND"):
			t.Errorf("%s: err = %v, want TARGET_NF_NOT_FOUND", tc.name, err)
		case !tc.wantErr && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestServingNetworkName(t *testing.T) {
	h := newHarness(t)
	if got := h.amf.ServingNetworkName(); got != "5G:mnc001.mcc001.3gppnetwork.org" {
		t.Fatalf("SNN = %q", got)
	}
}

func TestFullRegistrationStateMachine(t *testing.T) {
	h := newHarness(t)
	h.register(t, h.device(t), 1)
	if h.amf.RegisteredUEs() != 1 {
		t.Fatalf("RegisteredUEs = %d", h.amf.RegisteredUEs())
	}
	supi, ok := h.amf.SUPIOf(1)
	if !ok || supi != h.supi.String() {
		t.Fatalf("SUPIOf = %q %v", supi, ok)
	}
}

func TestInitialUERejectsGarbage(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	if _, err := h.amf.HandleInitialUE(ctx, 1, []byte{0x00, 0x01}); err == nil {
		t.Fatal("garbage NAS accepted")
	}
	// A non-registration first message is refused.
	pdu, err := nas.Encode(&nas.AuthenticationResponse{})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := h.amf.HandleInitialUE(ctx, 1, pdu); err == nil {
		t.Fatal("non-registration initial message accepted")
	}
}

// TestWrongLengthRANDFailsAtDecode: an AUSF that answers with a 15-byte
// RAND fails the registration where its answer is decoded, no NAS PDU
// reaches the UE and the AMF stores no context for it. A RAND of the wrong length used to be zero-padded into
// the AuthenticationRequest and fail only at completeAuth, one UE round
// trip later.
func TestWrongLengthRANDFailsAtDecode(t *testing.T) {
	h := newHarness(t)
	b64 := func(n int) string { return base64.StdEncoding.EncodeToString(bytes.Repeat([]byte{0x5a}, n)) }
	answer := fmt.Sprintf(`{"auth_ctx_id":"0000000000000001","rand":%q,"autn":%q,"hxres_star":%q}`, b64(15), b64(16), b64(16))
	stub := sbi.NewServer(ausf.ServiceName, nil)
	stub.HandleDual(ausf.PathAuthenticate, func(context.Context, []byte) ([]byte, error) {
		return []byte(answer), nil
	})
	h.reg.Deregister(ausf.ServiceName)
	if err := h.reg.Register(stub); err != nil {
		t.Fatalf("Register stub AUSF: %v", err)
	}

	up, err := h.device(t).BuildRegistrationRequest(context.Background(), h.amf.ServingNetworkName())
	if err != nil {
		t.Fatalf("BuildRegistrationRequest: %v", err)
	}
	down, err := h.amf.HandleInitialUE(context.Background(), 1, up)
	if !errors.Is(err, codec.ErrFieldLength) {
		t.Fatalf("HandleInitialUE error = %v, want a decode error (codec.ErrFieldLength)", err)
	}
	if down != nil {
		t.Fatalf("HandleInitialUE emitted a %d-byte NAS PDU for an undecodable challenge", len(down))
	}
	if _, ok := h.amf.AKAState(1); ok {
		t.Fatal("a failed first Authenticate stored a UE context")
	}
}

func TestInitialUERejectsWrongPLMN(t *testing.T) {
	h := newHarness(t)
	wrong := &suci.SUCI{MCC: "310", MNC: "410", RoutingIndicator: "0000",
		Scheme: suci.SchemeProfileA, HomeKeyID: 1, SchemeOutput: make([]byte, 50)}
	pdu, err := nas.Encode(&nas.RegistrationRequest{
		RegistrationType: nas.RegistrationInitial,
		Identity:         nas.MobileIdentity{Kind: nas.IdentityTypeSUCI, SUCI: wrong},
		Capabilities:     nas.Capabilities(nas.AlgNEA2, nas.AlgNIA2),
	})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	_, err = h.amf.HandleInitialUE(context.Background(), 1, pdu)
	if err == nil || !strings.Contains(err.Error(), "PLMN") {
		t.Fatalf("wrong-PLMN err = %v", err)
	}
}

// TestInitialUERejectsMissingSecurityCapabilities: a registration whose UE
// security capabilities do not advertise NEA2 and NIA2, the algorithms the
// SecurityModeCommand selects, is answered with a RegistrationReject of
// 5GMM cause #23 before any authentication, and leaves no UE context; the
// device reports the reject. The same request advertising both
// authenticates.
func TestInitialUERejectsMissingSecurityCapabilities(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	for i, row := range []struct {
		name string
		caps nas.SecurityCapabilities
	}{
		{"none", nas.SecurityCapabilities{}},
		{"ciphering only", nas.Capabilities(nas.AlgNEA2)},
		{"null ciphering", nas.Capabilities(nas.AlgNEA0, nas.AlgNIA2)},
		{"other integrity", nas.Capabilities(nas.AlgNEA2, 0x1)},
	} {
		d := h.device(t)
		up, err := d.BuildRegistrationRequest(ctx, h.amf.ServingNetworkName())
		if err != nil {
			t.Fatal(err)
		}
		msg, err := nas.Decode(up)
		if err != nil {
			t.Fatal(err)
		}
		rr := msg.(*nas.RegistrationRequest)
		rr.Capabilities = row.caps
		if up, err = nas.Encode(rr); err != nil {
			t.Fatal(err)
		}
		ran := uint64(i + 1)
		down, err := h.amf.HandleInitialUE(ctx, ran, up)
		if err != nil {
			t.Fatalf("%s: HandleInitialUE: %v", row.name, err)
		}
		got, err := nas.Decode(down)
		if rj, ok := got.(*nas.RegistrationReject); err != nil || !ok || rj.Cause != nas.CauseSecurityCapabilitiesMismatch {
			t.Fatalf("%s: answered %#v (%v), want a RegistrationReject with cause #23", row.name, got, err)
		}
		if _, _, err := d.HandleDownlinkNAS(ctx, down); !errors.Is(err, ue.ErrRegistrationRejected) {
			t.Fatalf("%s: device took the reject as %v", row.name, err)
		}
		next, err := nas.Encode(&nas.AuthenticationResponse{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.amf.HandleUplinkNAS(ctx, ran, next); err == nil || !strings.Contains(err.Error(), "no UE context") {
			t.Fatalf("%s: the AMF kept a context for the rejected UE (uplink err %v)", row.name, err)
		}
	}
	h.register(t, h.device(t), 99)
}

func TestUplinkUnknownUE(t *testing.T) {
	h := newHarness(t)
	pdu, err := nas.Encode(&nas.AuthenticationResponse{})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := h.amf.HandleUplinkNAS(context.Background(), 42, pdu); err == nil {
		t.Fatal("unknown RAN UE accepted")
	}
}

func TestWrongResStarGetsReject(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	device := h.device(t)
	up, err := device.BuildRegistrationRequest(ctx, h.amf.ServingNetworkName())
	if err != nil {
		t.Fatalf("BuildRegistrationRequest: %v", err)
	}
	if _, err := h.amf.HandleInitialUE(ctx, 1, up); err != nil {
		t.Fatalf("HandleInitialUE: %v", err)
	}
	// Impostor response with a garbage RES*.
	bad, err := nas.Encode(&nas.AuthenticationResponse{ResStar: [16]byte{1, 2, 3}})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	down, err := h.amf.HandleUplinkNAS(ctx, 1, bad)
	if err != nil {
		t.Fatalf("HandleUplinkNAS: %v", err)
	}
	msg, err := nas.Decode(down)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if _, ok := msg.(*nas.AuthenticationReject); !ok {
		t.Fatalf("downlink = %s, want AuthenticationReject", msg.Type())
	}
	if h.amf.RegisteredUEs() != 0 {
		t.Fatal("impostor registered")
	}
}

func TestPDUSessionLifecycle(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	device := h.device(t)
	h.register(t, device, 1)

	up, err := device.BuildPDUSessionRequest(ctx, 1, "internet")
	if err != nil {
		t.Fatalf("BuildPDUSessionRequest: %v", err)
	}
	down, err := h.amf.HandleUplinkNAS(ctx, 1, up)
	if err != nil {
		t.Fatalf("PDU session uplink: %v", err)
	}
	if _, _, err := device.HandleDownlinkNAS(ctx, down); err != nil {
		t.Fatalf("PDU accept: %v", err)
	}
	if device.UEAddress() == "" {
		t.Fatal("no UE address")
	}
	teid, ok := h.amf.PDUSessionTEID(1)
	if !ok || teid == 0 {
		t.Fatalf("TEID = %d %v", teid, ok)
	}
	if _, ok := h.amf.PDUSessionTEID(99); ok {
		t.Fatal("TEID for unknown UE")
	}
}

func TestMultipleUEsIndependentContexts(t *testing.T) {
	h := newHarness(t)
	for i := uint64(1); i <= 3; i++ {
		h.register(t, h.device(t), i)
	}
	if h.amf.RegisteredUEs() != 3 {
		t.Fatalf("RegisteredUEs = %d, want 3", h.amf.RegisteredUEs())
	}
}

// confirmAs is an AMF invoker whose AUSF, once armed, confirms every
// authentication as supi.
type confirmAs struct {
	sbi.Invoker
	supi  codec.SUPI
	armed bool
}

func (c *confirmAs) Post(ctx context.Context, service, path string, req, resp codec.Message) error {
	err := c.Invoker.Post(ctx, service, path, req, resp)
	if conf, ok := resp.(*ausf.ConfirmResponse); ok && err == nil && c.armed {
		conf.SUPI = c.supi
	}
	return err
}

// TestGUTIReRegistrationRejectsAnotherSUPI: a mobility registration
// authenticates the SUPI its GUTI resolved to, so a ConfirmResponse that
// names another subscriber is answered with an AuthenticationReject, and
// the UE registers as no one.
func TestGUTIReRegistrationRejectsAnotherSUPI(t *testing.T) {
	other := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000000002"}
	otherValue, err := other.Value()
	if err != nil {
		t.Fatal(err)
	}
	swap := &confirmAs{supi: otherValue}
	h := newHarnessWith(t, func(inv sbi.Invoker) sbi.Invoker { swap.Invoker = inv; return swap })
	h.provision(t, other)
	ctx := context.Background()
	device := h.device(t)
	h.register(t, device, 1)

	swap.armed = true
	up, err := device.BuildReRegistrationRequest(ctx, h.amf.ServingNetworkName())
	if err != nil {
		t.Fatalf("BuildReRegistrationRequest: %v", err)
	}
	down, err := h.amf.HandleInitialUE(ctx, 2, up)
	if err != nil {
		t.Fatalf("HandleInitialUE: %v", err)
	}
	answer, _, err := device.HandleDownlinkNAS(ctx, down)
	if err != nil {
		t.Fatalf("UE NAS: %v", err)
	}
	if down, err = h.amf.HandleUplinkNAS(ctx, 2, answer); err != nil {
		t.Fatalf("HandleUplinkNAS: %v", err)
	}
	if msg, err := nas.Decode(down); err != nil || msg.Type() != (&nas.AuthenticationReject{}).Type() {
		t.Fatalf("confirmed as %s, the AMF answered %v (%v), want AuthenticationReject", other, msg, err)
	}
	if supi, ok := h.amf.SUPIOf(2); ok {
		t.Fatalf("RAN UE 2 registered as %s", supi)
	}
}

// TestReRegistrationReleasesSupersededGUTI: the TMSI a mobility
// registration arrived with is released once RegistrationComplete
// acknowledges its successor, so the table holds one binding per attached
// UE however often each re-registers, and a superseded GUTI no longer
// resolves.
func TestReRegistrationReleasesSupersededGUTI(t *testing.T) {
	h := newHarness(t)
	const devices, rounds = 3, 4
	var ran uint64
	var fleet []*ue.UE
	for i := 0; i < devices; i++ {
		supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: fmt.Sprintf("%010d", 100+i)}
		h.provision(t, supi)
		d := h.deviceOf(t, supi)
		ran++
		h.register(t, d, ran)
		fleet = append(fleet, d)
	}
	first, _ := fleet[0].GUTI()
	for r := 0; r < rounds; r++ {
		for _, d := range fleet {
			ran++
			h.reregister(t, d, ran, false)
		}
	}
	if got := h.amf.GUTIBindings(); got != devices {
		t.Fatalf("%d TMSI bindings after %d re-registrations of %d UEs, want %d", got, rounds, devices, devices)
	}

	// The superseded GUTI takes the identity-procedure fallback.
	up, err := nas.Encode(&nas.RegistrationRequest{
		RegistrationType: nas.RegistrationMobility,
		Identity:         nas.MobileIdentity{Kind: nas.IdentityTypeGUTI, GUTI: first},
		Capabilities:     nas.Capabilities(nas.AlgNEA2, nas.AlgNIA2),
	})
	if err != nil {
		t.Fatal(err)
	}
	ran++
	down, err := h.amf.HandleInitialUE(context.Background(), ran, up)
	if err != nil {
		t.Fatalf("HandleInitialUE(superseded GUTI): %v", err)
	}
	if msg, err := nas.Decode(down); err != nil || msg.Type() != (&nas.IdentityRequest{}).Type() {
		t.Fatalf("superseded GUTI answered with %v (%v), want IdentityRequest", msg, err)
	}
}

// TestReRegistrationReleasesSupersededContext: each mobility registration
// arrives on a fresh RAN UE id, and its completion releases the context
// the old GUTI belonged to, so one UE holds one context. A re-registration
// under the context's own RAN UE id replaces it in place and keeps it.
func TestReRegistrationReleasesSupersededContext(t *testing.T) {
	h := newHarness(t)
	d := h.device(t)
	h.register(t, d, 1)
	for ran := uint64(2); ran <= 4; ran++ {
		h.reregister(t, d, ran, false)
	}
	if got := h.amf.RegisteredUEs(); got != 1 {
		t.Fatalf("one attach and three re-registrations leave %d contexts, want 1", got)
	}
	if _, ok := h.amf.SUPIOf(1); ok {
		t.Fatal("the first registration's context outlived its successor")
	}
	h.reregister(t, d, 4, false)
	if supi, ok := h.amf.SUPIOf(4); !ok || supi != h.supi.String() || h.amf.RegisteredUEs() != 1 || h.amf.GUTIBindings() != 1 {
		t.Fatalf("re-registration under the same RAN UE id: SUPIOf = %q %v, %d contexts, %d TMSIs; want the UE's, 1, 1",
			supi, ok, h.amf.RegisteredUEs(), h.amf.GUTIBindings())
	}
}

// TestLostRegistrationCompleteKeepsBothGUTIs: until the UE acknowledges
// the new GUTI the AMF cannot know which one it holds, so both resolve.
func TestLostRegistrationCompleteKeepsBothGUTIs(t *testing.T) {
	h := newHarness(t)
	d := h.device(t)
	h.register(t, d, 1)
	before, _ := d.GUTI()

	h.reregister(t, d, 2, true)
	after, _ := d.GUTI()
	if after.TMSI == before.TMSI {
		t.Fatal("re-registration did not assign a new GUTI")
	}
	if got := h.amf.GUTIBindings(); got != 2 {
		t.Fatalf("%d TMSI bindings after a lost RegistrationComplete, want 2", got)
	}
	// A UE that never saw the accept comes back with the old GUTI and is
	// challenged, not asked for its identity...
	up, err := nas.Encode(&nas.RegistrationRequest{
		RegistrationType: nas.RegistrationMobility,
		Identity:         nas.MobileIdentity{Kind: nas.IdentityTypeGUTI, GUTI: before},
		Capabilities:     nas.Capabilities(nas.AlgNEA2, nas.AlgNIA2),
	})
	if err != nil {
		t.Fatal(err)
	}
	down, err := h.amf.HandleInitialUE(context.Background(), 3, up)
	if err != nil {
		t.Fatalf("HandleInitialUE(old GUTI): %v", err)
	}
	if msg, err := nas.Decode(down); err != nil || msg.Type() != (&nas.AuthenticationRequest{}).Type() {
		t.Fatalf("old GUTI answered with %v (%v), want AuthenticationRequest", msg, err)
	}
	// ...and one that did see it registers with the new one.
	h.reregister(t, d, 4, false)
}

// TestRegisteredUEHoldsNoAKAState: the challenge state an AKA run needs is
// held while the UE is being authenticated and gone once it is registered,
// after a SUCI attach and after a GUTI re-registration alike.
func TestRegisteredUEHoldsNoAKAState(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	d := h.device(t)
	up, err := d.BuildRegistrationRequest(ctx, h.amf.ServingNetworkName())
	if err != nil {
		t.Fatalf("BuildRegistrationRequest: %v", err)
	}
	if _, err := h.amf.HandleInitialUE(ctx, 1, up); err != nil {
		t.Fatalf("HandleInitialUE: %v", err)
	}
	if held, _ := h.amf.AKAState(1); len(held) != 4 {
		t.Fatalf("mid-AKA context holds %v, want rand, hxresStar, authCtxID and suci", held)
	}

	h.register(t, d, 2)
	noAKAState := func(ran uint64) {
		t.Helper()
		held, ok := h.amf.AKAState(ran)
		if !ok {
			t.Fatalf("no UE context for RAN UE %d", ran)
		}
		if len(held) != 0 {
			t.Errorf("registered RAN UE %d still holds %v", ran, held)
		}
	}
	noAKAState(2)
	h.reregister(t, d, 3, false)
	noAKAState(3)
	if got := h.amf.RegisteredUEs(); got != 1 {
		t.Fatalf("RegisteredUEs = %d, want 1", got)
	}
}

// TestUEContextFitsItsSizeClass: the NAS security context lives inside
// the AMF's per-UE context, and the two together stay within the 256 B
// allocation size class that the context alone took before, so a
// registered UE costs the core one object and no more bytes.
func TestUEContextFitsItsSizeClass(t *testing.T) {
	if amf.UEContextSize > 256 {
		t.Fatalf("ueContext is %d B, over the 256 B size class", amf.UEContextSize)
	}
}

// TestIdleUEHoldsNoNASCipher: the AMF holds a UE's K_NASenc schedule only
// while a procedure runs. It has one once the SecurityModeCommand is
// ciphered, none once RegistrationComplete is accepted (after a SUCI
// attach and a GUTI re-registration alike), and a PDU session and a
// deregistration from that idle state still decipher and answer, the UE
// deciphering the accept.
func TestIdleUEHoldsNoNASCipher(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	d := h.device(t)
	cipherHeld := func(ran uint64, want bool, when string) {
		t.Helper()
		held, ok := h.amf.HoldsNASCipher(ran)
		if !ok {
			t.Fatalf("%s: RAN UE %d has no NAS security context", when, ran)
		}
		if held != want {
			t.Fatalf("%s: K_NASenc schedule held = %v, want %v", when, held, want)
		}
	}

	up, err := d.BuildRegistrationRequest(ctx, h.amf.ServingNetworkName())
	if err != nil {
		t.Fatalf("BuildRegistrationRequest: %v", err)
	}
	down, err := h.amf.HandleInitialUE(ctx, 1, up)
	if err != nil {
		t.Fatalf("HandleInitialUE: %v", err)
	}
	if _, ok := h.amf.HoldsNASCipher(1); ok {
		t.Fatal("NAS security context before AKA completes")
	}
	for step := 0; down != nil; step++ {
		if step == 1 {
			cipherHeld(1, true, "after SecurityModeCommand")
		}
		if up, _, err = d.HandleDownlinkNAS(ctx, down); err != nil {
			t.Fatalf("UE NAS step %d: %v", step, err)
		}
		if down, err = h.amf.HandleUplinkNAS(ctx, 1, up); err != nil {
			t.Fatalf("HandleUplinkNAS step %d: %v", step, err)
		}
	}
	if _, ok := h.amf.SUPIOf(1); !ok {
		t.Fatal("UE not registered")
	}
	cipherHeld(1, false, "after RegistrationComplete")

	if up, err = d.BuildPDUSessionRequest(ctx, 1, "internet"); err != nil {
		t.Fatalf("BuildPDUSessionRequest: %v", err)
	}
	if down, err = h.amf.HandleUplinkNAS(ctx, 1, up); err != nil {
		t.Fatalf("PDU session uplink: %v", err)
	}
	if _, _, err := d.HandleDownlinkNAS(ctx, down); err != nil {
		t.Fatalf("UE deciphering the PDU session accept: %v", err)
	}
	if d.UEAddress() == "" {
		t.Fatal("UE holds no address from the accept")
	}
	cipherHeld(1, false, "after the PDU session accept")

	h.reregister(t, d, 2, false)
	cipherHeld(2, false, "after a GUTI re-registration")
	if up, err = d.BuildDeregistrationRequest(ctx); err != nil {
		t.Fatalf("BuildDeregistrationRequest: %v", err)
	}
	if _, err := h.amf.HandleUplinkNAS(ctx, 2, up); err != nil {
		t.Fatalf("deregistration: %v", err)
	}
	if _, ok := h.amf.HoldsNASCipher(2); ok {
		t.Fatal("deregistered UE context still present")
	}
}

// classRecorder is an AMF invoker that records the admission class each
// of the AMF's SBI posts carries and keeps the AUSF's last challenge
// answer. While lose is positive it loses an AUSF confirm reply after the
// AUSF consumed the session, answering CONTEXT_NOT_FOUND the way a
// dropped reply does.
type classRecorder struct {
	sbi.Invoker
	posts []classedPost
	last  ausf.AuthenticateResponse
	lose  int
}

type classedPost struct {
	path  string
	class sbi.Priority
}

func (r *classRecorder) Post(ctx context.Context, service, path string, req, resp codec.Message) error {
	r.posts = append(r.posts, classedPost{path, sbi.PriorityFrom(ctx)})
	err := r.Invoker.Post(ctx, service, path, req, resp)
	if auth, ok := resp.(*ausf.AuthenticateResponse); ok && err == nil {
		r.last = *auth
	}
	if path == ausf.PathConfirm && err == nil && r.lose > 0 {
		r.lose--
		return sbi.Problem(404, "Not Found", "CONTEXT_NOT_FOUND", "confirm reply lost")
	}
	return err
}

// TestEveryRoundKeepsTheAdmissionClass drives every way the AMF arms an
// AKA challenge — a SUCI attach, a known GUTI, the identity response after
// an unknown GUTI, the re-authentication of a lost AUSF session and the
// resynchronisation after an AuthenticationReject — and checks that each
// challenge the UE gets is the AUSF's last answer and that every SBI post
// of the registration carries the class its RegistrationRequest was
// admitted under, the identity fallback's rounds after an unknown GUTI
// included.
func TestEveryRoundKeepsTheAdmissionClass(t *testing.T) {
	ctx := context.Background()
	// unknownGUTI registers the device, then asks with a GUTI no context
	// resolves.
	unknownGUTI := func(regType byte) func(*testing.T, *harness, *ue.UE) []byte {
		return func(t *testing.T, h *harness, d *ue.UE) []byte {
			h.register(t, d, 100)
			g, _ := d.GUTI()
			g.TMSI += 1000
			up, err := nas.Encode(&nas.RegistrationRequest{
				RegistrationType: regType,
				Identity:         nas.MobileIdentity{Kind: nas.IdentityTypeGUTI, GUTI: g},
				Capabilities:     nas.Capabilities(nas.AlgNEA2, nas.AlgNIA2),
			})
			if err != nil {
				t.Fatal(err)
			}
			return up
		}
	}
	attach := func(emergency bool) func(*testing.T, *harness, *ue.UE) []byte {
		return func(t *testing.T, h *harness, d *ue.UE) []byte {
			d.SetEmergency(emergency)
			up, err := d.BuildRegistrationRequest(ctx, h.amf.ServingNetworkName())
			if err != nil {
				t.Fatal(err)
			}
			return up
		}
	}
	for _, tc := range []struct {
		name  string
		first func(*testing.T, *harness, *ue.UE) []byte // the RegistrationRequest
		class sbi.Priority
		lose  int // AUSF confirm replies lost
		// rejectFirst answers the first challenge with a wrong RES*
		// before the UE's own answer goes up.
		rejectFirst bool
		identity    bool // the AMF asks for the SUCI first
		challenges  int
		registered  bool
	}{
		{name: "SUCI attach", first: attach(false), class: sbi.PriorityFresh, challenges: 1, registered: true},
		{name: "known GUTI", first: func(t *testing.T, h *harness, d *ue.UE) []byte {
			h.register(t, d, 100)
			up, err := d.BuildReRegistrationRequest(ctx, h.amf.ServingNetworkName())
			if err != nil {
				t.Fatal(err)
			}
			return up
		}, class: sbi.PriorityReattach, challenges: 1, registered: true},
		{name: "identity response, emergency", first: unknownGUTI(nas.RegistrationEmergency),
			class: sbi.PriorityEmergency, identity: true, challenges: 1, registered: true},
		{name: "identity response, re-attach", first: unknownGUTI(nas.RegistrationMobility),
			class: sbi.PriorityReattach, identity: true, challenges: 1, registered: true},
		{name: "lost session re-auth", first: attach(true), class: sbi.PriorityEmergency,
			lose: 1, challenges: 2, registered: true},
		{name: "second lost session rejected", first: attach(true), class: sbi.PriorityEmergency,
			lose: 2, challenges: 2},
		{name: "resync after reject", first: func(t *testing.T, h *harness, d *ue.UE) []byte {
			// The USIM's SQN is ahead of the network's: the first
			// challenge fails its freshness check.
			if err := d.SetSQN([]byte{0, 0, 0, 0x40, 0, 0}); err != nil {
				t.Fatal(err)
			}
			return attach(false)(t, h, d)
		}, class: sbi.PriorityFresh, rejectFirst: true, challenges: 2, registered: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &classRecorder{}
			h := newHarnessWith(t, func(inv sbi.Invoker) sbi.Invoker { rec.Invoker = inv; return rec })
			d := h.device(t)
			up := tc.first(t, h, d)
			rec.posts, rec.lose = nil, tc.lose

			const ran = 1
			down, err := h.amf.HandleInitialUE(ctx, ran, up)
			if err != nil {
				t.Fatalf("HandleInitialUE: %v", err)
			}
			challenges, identity, rejected := 0, false, false
			for step := 0; down != nil; step++ {
				if step == 12 {
					t.Fatal("registration did not converge")
				}
				if !nas.IsProtected(down) {
					msg, err := nas.Decode(down)
					if err != nil {
						t.Fatalf("downlink: %v", err)
					}
					switch m := msg.(type) {
					case *nas.IdentityRequest:
						identity = true
					case *nas.AuthenticationRequest:
						challenges++
						if m.RAND != rec.last.RAND || m.AUTN != rec.last.AUTN {
							t.Fatalf("challenge %d carries RAND %x AUTN %x, the AUSF answered %x %x",
								challenges, m.RAND, m.AUTN, rec.last.RAND, rec.last.AUTN)
						}
					}
				}
				up, done, err := d.HandleDownlinkNAS(ctx, down)
				if errors.Is(err, ue.ErrRejected) {
					rejected = true
					break
				}
				if err != nil {
					t.Fatalf("UE NAS: %v", err)
				}
				if tc.rejectFirst && challenges == 1 {
					tc.rejectFirst = false
					bad, err := nas.Encode(&nas.AuthenticationResponse{ResStar: [16]byte{1, 2, 3}})
					if err != nil {
						t.Fatal(err)
					}
					down, err := h.amf.HandleUplinkNAS(ctx, ran, bad)
					if err != nil {
						t.Fatalf("wrong RES*: %v", err)
					}
					if msg, err := nas.Decode(down); err != nil || msg.Type() != (&nas.AuthenticationReject{}).Type() {
						t.Fatalf("wrong RES* answered with %v (%v), want AuthenticationReject", msg, err)
					}
				}
				if down, err = h.amf.HandleUplinkNAS(ctx, ran, up); err != nil {
					t.Fatalf("HandleUplinkNAS: %v", err)
				}
				if done {
					break
				}
			}

			_, registered := h.amf.SUPIOf(ran)
			if challenges != tc.challenges || identity != tc.identity || registered != tc.registered || rejected == tc.registered {
				t.Errorf("%d challenges, identity procedure %v, registered %v, rejected %v; want %d, %v, %v, %v",
					challenges, identity, registered, rejected, tc.challenges, tc.identity, tc.registered, !tc.registered)
			}
			if len(rec.posts) == 0 {
				t.Fatal("no SBI post recorded")
			}
			for _, p := range rec.posts {
				if p.class != tc.class {
					t.Errorf("%s posted as %s, want %s", p.path, p.class, tc.class)
				}
			}
		})
	}
}
