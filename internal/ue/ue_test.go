package ue

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/crypto/milenage"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/nas"
	"shield5g/internal/paka"
	"shield5g/internal/simclock"
)

var (
	testK    = []byte{0x46, 0x5b, 0x5c, 0xe8, 0xb1, 0x99, 0xb4, 0x9f, 0xaa, 0x5f, 0x0a, 0x2e, 0xe2, 0x38, 0xa6, 0xbc}
	testSUPI = suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000000001"}
	testSNN  = "5G:mnc001.mcc001.3gppnetwork.org"
)

type fixture struct {
	ue    *UE
	opc   []byte
	mil   *milenage.Cipher
	hnKey *suci.HomeNetworkKey
	env   *costmodel.Env
}

func newFixture(t *testing.T, profile *COTSProfile) *fixture {
	t.Helper()
	env := costmodel.NewEnv(nil, 2)
	opc, err := milenage.ComputeOPc(testK, make([]byte, 16))
	if err != nil {
		t.Fatalf("ComputeOPc: %v", err)
	}
	hnKey, err := suci.GenerateHomeNetworkKey(rand.Reader, 1)
	if err != nil {
		t.Fatalf("GenerateHomeNetworkKey: %v", err)
	}
	device, err := New(Config{
		SUPI: testSUPI, K: testK, OPc: opc,
		HomeNetworkPublicKey: hnKey.PublicKey(),
		HomeNetworkKeyID:     hnKey.ID,
		Env:                  env,
		Profile:              profile,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mil, err := milenage.New(testK, opc)
	if err != nil {
		t.Fatalf("milenage.New: %v", err)
	}
	return &fixture{ue: device, opc: opc, mil: mil, hnKey: hnKey, env: env}
}

// networkChallenge builds a valid AuthenticationRequest for the fixture's
// USIM at network SQN sqn, using the same P-AKA derivations the core runs.
func (f *fixture) networkChallenge(t *testing.T, sqn []byte) (*nas.AuthenticationRequest, *paka.UDMGenerateAVResponse) {
	t.Helper()
	randBytes := make([]byte, 16)
	if _, err := rand.Read(randBytes); err != nil {
		t.Fatalf("rand: %v", err)
	}
	av, err := paka.GenerateAV(testK, &paka.UDMGenerateAVRequest{
		SUPI: testSUPI.String(), OPc: f.opc, RAND: randBytes,
		SQN: sqn, AMFID: []byte{0x80, 0x00}, SNN: testSNN,
	})
	if err != nil {
		t.Fatalf("GenerateAV: %v", err)
	}
	req := &nas.AuthenticationRequest{NgKSI: 0, ABBA: []byte{0, 0}}
	copy(req.RAND[:], av.RAND)
	copy(req.AUTN[:], av.AUTN)
	return req, av
}

func TestNewValidation(t *testing.T) {
	env := costmodel.NewEnv(nil, 1)
	if _, err := New(Config{SUPI: suci.SUPI{MCC: "1"}, K: testK, OPc: testK, Env: env}); err == nil {
		t.Fatal("invalid SUPI accepted")
	}
	if _, err := New(Config{SUPI: testSUPI, K: testK, OPc: testK}); err == nil {
		t.Fatal("missing env accepted")
	}
	if _, err := New(Config{SUPI: testSUPI, K: testK[:4], OPc: testK, Env: env}); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestBuildRegistrationRequestConcealsSUPI(t *testing.T) {
	f := newFixture(t, nil)
	pdu, err := f.ue.BuildRegistrationRequest(context.Background(), testSNN)
	if err != nil {
		t.Fatalf("BuildRegistrationRequest: %v", err)
	}
	if bytes.Contains(pdu, []byte(testSUPI.MSIN)) {
		t.Fatal("registration request leaks MSIN")
	}
	msg, err := nas.Decode(pdu)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	rr, ok := msg.(*nas.RegistrationRequest)
	if !ok || rr.Identity.SUCI == nil {
		t.Fatalf("decoded = %#v", msg)
	}
	// The home network can recover the SUPI.
	got, err := f.hnKey.Deconceal(rr.Identity.SUCI)
	if err != nil {
		t.Fatalf("Deconceal: %v", err)
	}
	if got != testSUPI {
		t.Fatalf("deconcealed = %+v", got)
	}
}

func TestAuthChallengeAcceptedAndResStarCorrect(t *testing.T) {
	f := newFixture(t, nil)
	if _, err := f.ue.BuildRegistrationRequest(context.Background(), testSNN); err != nil {
		t.Fatalf("BuildRegistrationRequest: %v", err)
	}
	req, av := f.networkChallenge(t, []byte{0, 0, 0, 0, 0, 0x20})
	pdu, err := nas.Encode(req)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	up, done, err := f.ue.HandleDownlinkNAS(context.Background(), pdu)
	if err != nil {
		t.Fatalf("HandleDownlinkNAS: %v", err)
	}
	if done {
		t.Fatal("done too early")
	}
	msg, err := nas.Decode(up)
	if err != nil {
		t.Fatalf("Decode uplink: %v", err)
	}
	resp, ok := msg.(*nas.AuthenticationResponse)
	if !ok {
		t.Fatalf("uplink = %s", msg.Type())
	}
	if !bytes.Equal(resp.ResStar[:], av.XRESStar) {
		t.Fatal("UE RES* does not match network XRES*")
	}
	// The USIM advanced its sequence number.
	if !bytes.Equal(f.ue.SQN(), []byte{0, 0, 0, 0, 0, 0x20}) {
		t.Fatalf("USIM SQN = %x", f.ue.SQN())
	}
}

func TestAuthChallengeTamperedAUTN(t *testing.T) {
	f := newFixture(t, nil)
	if _, err := f.ue.BuildRegistrationRequest(context.Background(), testSNN); err != nil {
		t.Fatalf("BuildRegistrationRequest: %v", err)
	}
	req, _ := f.networkChallenge(t, []byte{0, 0, 0, 0, 0, 0x20})
	req.AUTN[15] ^= 1 // corrupt MAC-A
	pdu, err := nas.Encode(req)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	up, _, err := f.ue.HandleDownlinkNAS(context.Background(), pdu)
	if !errors.Is(err, ErrMACFailure) {
		t.Fatalf("err = %v, want ErrMACFailure", err)
	}
	msg, derr := nas.Decode(up)
	if derr != nil {
		t.Fatalf("Decode: %v", derr)
	}
	fail, ok := msg.(*nas.AuthenticationFailure)
	if !ok || fail.Cause != nas.CauseMACFailure {
		t.Fatalf("uplink = %#v", msg)
	}
}

func TestAuthChallengeStaleSQNTriggersResync(t *testing.T) {
	f := newFixture(t, nil)
	if err := f.ue.SetSQN([]byte{0, 0, 0, 0, 1, 0}); err != nil {
		t.Fatalf("SetSQN: %v", err)
	}
	if _, err := f.ue.BuildRegistrationRequest(context.Background(), testSNN); err != nil {
		t.Fatalf("BuildRegistrationRequest: %v", err)
	}
	// Network SQN behind the USIM's.
	req, _ := f.networkChallenge(t, []byte{0, 0, 0, 0, 0, 0x20})
	pdu, err := nas.Encode(req)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	up, _, err := f.ue.HandleDownlinkNAS(context.Background(), pdu)
	if err != nil {
		t.Fatalf("HandleDownlinkNAS: %v", err)
	}
	msg, err := nas.Decode(up)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	fail, ok := msg.(*nas.AuthenticationFailure)
	if !ok || fail.Cause != nas.CauseSyncFailure || len(fail.AUTS) != 14 {
		t.Fatalf("uplink = %#v", msg)
	}
	// The AUTS verifies under the eUDM resync function and reveals the
	// USIM's sequence number.
	resp, err := paka.Resync(testK, &paka.UDMResyncRequest{
		SUPI: testSUPI.String(), OPc: f.opc, RAND: req.RAND[:], AUTS: fail.AUTS,
	})
	if err != nil {
		t.Fatalf("Resync: %v", err)
	}
	if !bytes.Equal(resp.SQNMS, []byte{0, 0, 0, 0, 1, 0}) {
		t.Fatalf("SQN_MS = %x", resp.SQNMS)
	}
}

func TestAuthenticationRejectSurfaces(t *testing.T) {
	f := newFixture(t, nil)
	pdu, err := nas.Encode(&nas.AuthenticationReject{})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, _, err := f.ue.HandleDownlinkNAS(context.Background(), pdu); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
}

func TestKeyHierarchyMatchesNetworkSide(t *testing.T) {
	f := newFixture(t, nil)
	if _, err := f.ue.BuildRegistrationRequest(context.Background(), testSNN); err != nil {
		t.Fatalf("BuildRegistrationRequest: %v", err)
	}
	req, av := f.networkChallenge(t, []byte{0, 0, 0, 0, 0, 0x20})
	pdu, err := nas.Encode(req)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, _, err := f.ue.HandleDownlinkNAS(context.Background(), pdu); err != nil {
		t.Fatalf("HandleDownlinkNAS: %v", err)
	}

	// Network side derivations.
	se, err := paka.DeriveSE(&paka.AUSFDeriveSERequest{RAND: av.RAND, XRESStar: av.XRESStar, KAUSF: av.KAUSF, SNN: testSNN})
	if err != nil {
		t.Fatalf("DeriveSE: %v", err)
	}
	kamfResp, err := paka.DeriveKAMF(&paka.AMFDeriveKAMFRequest{KSEAF: se.KSEAF, SUPI: testSUPI.String(), ABBA: []byte{0, 0}})
	if err != nil {
		t.Fatalf("DeriveKAMF: %v", err)
	}

	// If both sides agree on K_AMF, a SecurityModeCommand protected by
	// the network verifies at the UE.
	sec, err := nas.NewSecurityContext(kamfResp.KAMF)
	if err != nil {
		t.Fatalf("NewSecurityContext: %v", err)
	}
	smc, err := sec.Protect(&nas.SecurityModeCommand{IntegrityAlg: nas.AlgNIA2, CipheringAlg: nas.AlgNEA2}, false)
	if err != nil {
		t.Fatalf("Protect: %v", err)
	}
	up, _, err := f.ue.HandleDownlinkNAS(context.Background(), smc)
	if err != nil {
		t.Fatalf("UE rejected protected SMC (key mismatch?): %v", err)
	}
	if _, err := sec.Unprotect(up, true); err != nil {
		t.Fatalf("network rejected SecurityModeComplete: %v", err)
	}
}

func TestGUTIAndAddressAccessors(t *testing.T) {
	f := newFixture(t, nil)
	if _, ok := f.ue.GUTI(); ok {
		t.Fatal("GUTI before registration")
	}
	if f.ue.UEAddress() != "" {
		t.Fatal("address before PDU session")
	}
	if f.ue.SUPI() != testSUPI {
		t.Fatal("SUPI accessor wrong")
	}
	if err := f.ue.SetSQN([]byte{1}); err == nil {
		t.Fatal("short SQN accepted")
	}
}

func TestPDUSessionRequestRequiresRegistration(t *testing.T) {
	f := newFixture(t, nil)
	if _, err := f.ue.BuildPDUSessionRequest(context.Background(), 1, "internet"); err == nil {
		t.Fatal("PDU request before registration accepted")
	}
}

func TestCOTSProfiles(t *testing.T) {
	p := OnePlus8()
	f := newFixture(t, &p)
	if err := f.ue.DetectNetwork("00101"); err != nil {
		t.Fatalf("test PLMN not detected: %v", err)
	}
	if err := f.ue.DetectNetwork("31041"); !errors.Is(err, ErrNoNetwork) {
		t.Fatalf("custom PLMN err = %v, want ErrNoNetwork", err)
	}

	bad := OnePlus8()
	bad.OSVersion = "Oxygen 12"
	f2 := newFixture(t, &bad)
	if err := f2.ue.DetectNetwork("00101"); !errors.Is(err, ErrNoNetwork) {
		t.Fatalf("wrong OS err = %v, want ErrNoNetwork", err)
	}

	// A profile-less simulator UE attaches to anything.
	f3 := newFixture(t, nil)
	if err := f3.ue.DetectNetwork("99999"); err != nil {
		t.Fatalf("simulator UE refused PLMN: %v", err)
	}
}

func TestChargesUSIMCompute(t *testing.T) {
	f := newFixture(t, nil)
	var acct simclock.Account
	ctx := simclock.WithAccount(context.Background(), &acct)
	if _, err := f.ue.BuildRegistrationRequest(ctx, testSNN); err != nil {
		t.Fatalf("BuildRegistrationRequest: %v", err)
	}
	if acct.Total() == 0 {
		t.Fatal("registration build charged nothing")
	}
}

func TestSQNAhead(t *testing.T) {
	if !sqnAhead([]byte{0, 0, 0, 0, 0, 2}, []byte{0, 0, 0, 0, 0, 1}) {
		t.Fatal("2 not ahead of 1")
	}
	if sqnAhead([]byte{0, 0, 0, 0, 0, 1}, []byte{0, 0, 0, 0, 0, 1}) {
		t.Fatal("equal counted as ahead")
	}
	if sqnAhead([]byte{0, 0, 0, 0, 0, 0}, []byte{0xff, 0, 0, 0, 0, 0}) {
		t.Fatal("0 ahead of big value")
	}
}
