package ue

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"testing"
	"unsafe"

	"shield5g/internal/costmodel"
	"shield5g/internal/crypto/kdf"
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
	req := &nas.AuthenticationRequest{NgKSI: 0, ABBA: []byte{0, 0}, RAND: av.RAND, AUTN: av.AUTN}
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
	// The home-network key is an X25519 key: a wrong length fails here,
	// not at the first concealment.
	for _, n := range []int{0, 31, 33} {
		if _, err := New(Config{SUPI: testSUPI, K: testK, OPc: testK, HomeNetworkPublicKey: make([]byte, n), Env: env}); err == nil {
			t.Fatalf("%d-byte home network key accepted", n)
		}
	}
	// A null-scheme device never conceals and needs no key.
	if _, err := New(Config{SUPI: testSUPI, K: testK, OPc: testK, UseNullScheme: true, Env: env}); err != nil {
		t.Fatalf("null-scheme device without a home network key: %v", err)
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
	if resp.ResStar != av.XRESStar {
		t.Fatal("UE RES* does not match network XRES*")
	}
	// The USIM advanced its sequence number.
	if !bytes.Equal(f.ue.sqnMS[:], []byte{0, 0, 0, 0, 0, 0x20}) {
		t.Fatalf("USIM SQN = %x", f.ue.sqnMS[:])
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
	// The AUTS reveals the USIM's sequence number under AK* and carries a
	// MAC-S over it that verifies under K (TS 33.102 §6.3.5).
	c, err := milenage.New(testK, f.opc)
	if err != nil {
		t.Fatalf("milenage.New: %v", err)
	}
	akStar, _ := c.F5Star(req.RAND[:])
	sqnMS, err := kdf.XorSQNAK(fail.AUTS[:6], akStar)
	if err != nil {
		t.Fatalf("XorSQNAK: %v", err)
	}
	if !bytes.Equal(sqnMS, []byte{0, 0, 0, 0, 1, 0}) {
		t.Fatalf("SQN_MS = %x", sqnMS)
	}
	if macS, _ := c.F1Star(req.RAND[:], sqnMS, []byte{0, 0}); !bytes.Equal(macS, fail.AUTS[6:]) {
		t.Fatalf("MAC-S = %x, want %x", fail.AUTS[6:], macS)
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
	kamf := make([]byte, kdf.KeyLen256)
	if err := kdf.KAMFInto(kamf, se.KSEAF[:], testSUPI.String(), []byte{0, 0}); err != nil {
		t.Fatalf("KAMFInto: %v", err)
	}

	// If both sides agree on K_AMF, a SecurityModeCommand protected by
	// the network verifies at the UE.
	sec, err := nas.NewSecurityContext(kamf)
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

// The stages attach drives a device to.
const (
	stageBeforeAKA  = iota // RegistrationRequest sent
	stageAfterAKA          // AuthenticationResponse sent
	stageRegistered        // RegistrationComplete sent
	numStages
)

// attachGUTI is the GUTI attach's network stand-in assigns.
var attachGUTI = nas.GUTI{MCC: "001", MNC: "01", AMFRegionID: 0xCA, AMFSetID: 0x3FE, AMFPointer: 0x3F, TMSI: 0xDEADBEEF}

// attach drives a null-scheme device through one registration up to
// stage against a network stand-in built from the P-AKA functions the core
// runs, with a fixed RAND so every run is identical. It returns the device
// and the network's NAS context (nil before AKA).
func attach(tb testing.TB, stage int) (*UE, *nas.SecurityContext) {
	tb.Helper()
	ctx := context.Background()
	opc, err := milenage.ComputeOPc(testK, make([]byte, 16))
	if err != nil {
		tb.Fatalf("ComputeOPc: %v", err)
	}
	d, err := New(Config{SUPI: testSUPI, K: testK, OPc: opc, UseNullScheme: true, Env: costmodel.NewEnv(nil, 2)})
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	if _, err := d.BuildRegistrationRequest(ctx, testSNN); err != nil {
		tb.Fatalf("BuildRegistrationRequest: %v", err)
	}
	if stage == stageBeforeAKA {
		return d, nil
	}

	randBytes := bytes.Repeat([]byte{0x5A}, 16)
	av, err := paka.GenerateAV(testK, &paka.UDMGenerateAVRequest{
		SUPI: testSUPI.String(), OPc: opc, RAND: randBytes,
		SQN: []byte{0, 0, 0, 0, 0, 0x20}, AMFID: []byte{0x80, 0x00}, SNN: testSNN,
	})
	if err != nil {
		tb.Fatalf("GenerateAV: %v", err)
	}
	se, err := paka.DeriveSE(&paka.AUSFDeriveSERequest{RAND: av.RAND, XRESStar: av.XRESStar, KAUSF: av.KAUSF, SNN: testSNN})
	if err != nil {
		tb.Fatalf("DeriveSE: %v", err)
	}
	kamf := make([]byte, kdf.KeyLen256)
	if err := kdf.KAMFInto(kamf, se.KSEAF[:], testSUPI.String(), []byte{0, 0}); err != nil {
		tb.Fatalf("KAMFInto: %v", err)
	}
	network, err := nas.NewSecurityContext(kamf)
	if err != nil {
		tb.Fatalf("NewSecurityContext: %v", err)
	}
	challenge, err := nas.Encode(&nas.AuthenticationRequest{ABBA: []byte{0, 0}, RAND: av.RAND, AUTN: av.AUTN})
	if err != nil {
		tb.Fatalf("Encode: %v", err)
	}
	if _, _, err := d.HandleDownlinkNAS(ctx, challenge); err != nil {
		tb.Fatalf("AuthenticationRequest: %v", err)
	}
	if stage == stageAfterAKA {
		return d, network
	}

	for _, m := range []nas.Message{
		&nas.SecurityModeCommand{IntegrityAlg: nas.AlgNIA2, CipheringAlg: nas.AlgNEA2},
		&nas.RegistrationAccept{GUTI: attachGUTI},
	} {
		down, err := network.Protect(m, false)
		if err != nil {
			tb.Fatalf("Protect(%s): %v", m.Type(), err)
		}
		up, _, err := d.HandleDownlinkNAS(ctx, down)
		if err != nil {
			tb.Fatalf("%s: %v", m.Type(), err)
		}
		if _, err := network.Unprotect(up, true); err != nil {
			tb.Fatalf("answer to %s: %v", m.Type(), err)
		}
	}
	return d, network
}

// plainPDU encodes m without security protection.
func plainPDU(tb testing.TB, m nas.Message) []byte {
	tb.Helper()
	pdu, err := nas.Encode(m)
	if err != nil {
		tb.Fatalf("Encode(%s): %v", m.Type(), err)
	}
	return pdu
}

// TestUnprotectedDownlinkRefused: outside integrity protection the UE
// processes only IdentityRequest, AuthenticationRequest and
// AuthenticationReject (TS 24.501 §4.4.4.2). A plain SecurityModeCommand or
// RegistrationAccept is an error before AKA (it used to reach Protect on a
// nil context and panic) and after it (a plain accept used to store the
// sender's GUTI and answer RegistrationComplete), and so is a plain PDU
// session accept to a registered device.
func TestUnprotectedDownlinkRefused(t *testing.T) {
	smc := &nas.SecurityModeCommand{IntegrityAlg: nas.AlgNIA2, CipheringAlg: nas.AlgNEA2}
	forged := nas.GUTI{MCC: "001", MNC: "01", TMSI: 0x0BADF00D}
	for _, tc := range []struct {
		name  string
		stage int
		msg   nas.Message
	}{
		{"SecurityModeCommand before AKA", stageBeforeAKA, smc},
		{"RegistrationAccept before AKA", stageBeforeAKA, &nas.RegistrationAccept{GUTI: forged}},
		{"SecurityModeCommand after AKA", stageAfterAKA, smc},
		{"RegistrationAccept after AKA", stageAfterAKA, &nas.RegistrationAccept{GUTI: forged}},
		{"RegistrationAccept when registered", stageRegistered, &nas.RegistrationAccept{GUTI: forged}},
		{"PDUSessionEstablishmentAccept when registered", stageRegistered, &nas.PDUSessionEstablishmentAccept{SessionID: 1, UEAddress: "10.45.0.66"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, _ := attach(t, tc.stage)
			gutiBefore, _ := d.GUTI()
			up, done, err := d.HandleDownlinkNAS(context.Background(), plainPDU(t, tc.msg))
			if err == nil || up != nil || done {
				t.Fatalf("plain %s: uplink %x, done %v, err %v; want refused", tc.msg.Type(), up, done, err)
			}
			if g, _ := d.GUTI(); g != gutiBefore {
				t.Fatalf("plain %s stored GUTI %v", tc.msg.Type(), g)
			}
			if a := d.UEAddress(); a != "" {
				t.Fatalf("plain %s stored address %q", tc.msg.Type(), a)
			}
		})
	}
}

// TestRegisteredUEHoldsNoNASCipher: the UE holds its K_NASenc schedule only
// while a procedure runs, the twin of the AMF's TestIdleUEHoldsNoNASCipher.
// It has none after AKA, one once it ciphers the SecurityModeComplete,
// none once it has protected the RegistrationComplete, and a PDU session
// from that idle state still ciphers and deciphers.
func TestRegisteredUEHoldsNoNASCipher(t *testing.T) {
	ctx := context.Background()
	d, network := attach(t, stageAfterAKA)
	if d.sec.HoldsCipher() {
		t.Fatal("K_NASenc schedule held before the first ciphered message")
	}
	for _, tc := range []struct {
		msg  nas.Message
		done bool
		held bool
	}{
		{&nas.SecurityModeCommand{IntegrityAlg: nas.AlgNIA2, CipheringAlg: nas.AlgNEA2}, false, true},
		{&nas.RegistrationAccept{GUTI: attachGUTI}, true, false},
	} {
		down, err := network.Protect(tc.msg, false)
		if err != nil {
			t.Fatalf("Protect(%s): %v", tc.msg.Type(), err)
		}
		up, done, err := d.HandleDownlinkNAS(ctx, down)
		if err != nil || done != tc.done {
			t.Fatalf("%s: done %v, err %v; want done %v", tc.msg.Type(), done, err, tc.done)
		}
		if _, err := network.Unprotect(up, true); err != nil {
			t.Fatalf("answer to %s: %v", tc.msg.Type(), err)
		}
		if held := d.sec.HoldsCipher(); held != tc.held {
			t.Fatalf("after %s: K_NASenc schedule held = %v, want %v", tc.msg.Type(), held, tc.held)
		}
	}

	up, err := d.BuildPDUSessionRequest(ctx, 1, "internet")
	if err != nil {
		t.Fatalf("BuildPDUSessionRequest: %v", err)
	}
	if _, err := network.Unprotect(up, true); err != nil {
		t.Fatalf("network rejected the idle UE's PDU session request: %v", err)
	}
	down, err := network.Protect(&nas.PDUSessionEstablishmentAccept{SessionID: 1, UEAddress: "10.45.0.2"}, false)
	if err != nil {
		t.Fatalf("Protect: %v", err)
	}
	if _, done, err := d.HandleDownlinkNAS(ctx, down); err != nil || !done {
		t.Fatalf("PDU session accept: done %v, err %v", done, err)
	}
	if d.UEAddress() != "10.45.0.2" {
		t.Fatalf("address %q after PDU session accept", d.UEAddress())
	}
}

// TestUEFitsItsSizeClass: a device stays one 280 B object (the 288 B
// size class) with its NAS context and GUTI behind pointers that every
// registration after the first re-uses in place.
func TestUEFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(UE{}); n > 280 {
		t.Fatalf("UE is %d B, want at most 280", n)
	}
}

// FuzzUEDownlink feeds arbitrary downlink PDUs to a device before AKA,
// after AKA and once registered (stage modulo 3). The device must never
// panic, and it may report done or store a GUTI only for a PDU whose MAC
// verifies under its own NAS context as it stood before the call. The
// seeds are every downlink of attach, plain and protected;
// testdata/fuzz/FuzzUEDownlink holds the plain SecurityModeCommand before
// AKA (which used to panic) and the plain RegistrationAccept after AKA
// (which used to be accepted).
func FuzzUEDownlink(f *testing.F) {
	_, network := attach(f, stageAfterAKA)
	for _, m := range []nas.Message{
		&nas.IdentityRequest{IdentityType: nas.IdentityTypeSUCI},
		&nas.AuthenticationReject{},
		&nas.SecurityModeCommand{IntegrityAlg: nas.AlgNIA2, CipheringAlg: nas.AlgNEA2},
		&nas.RegistrationAccept{GUTI: attachGUTI},
		&nas.PDUSessionEstablishmentAccept{SessionID: 1, UEAddress: "10.45.0.2"},
	} {
		plain := plainPDU(f, m)
		protected, err := network.Protect(m, false)
		if err != nil {
			f.Fatalf("Protect(%s): %v", m.Type(), err)
		}
		for stage := byte(0); stage < numStages; stage++ {
			f.Add(stage, plain)
			f.Add(stage, protected)
		}
	}
	f.Fuzz(func(t *testing.T, stage byte, pdu []byte) {
		d, _ := attach(t, int(stage%numStages))
		var verifier *nas.SecurityContext
		if d.secured() {
			v := *d.sec
			verifier = &v
		}
		gutiBefore, _ := d.GUTI()
		// The device takes ownership of what it is handed, so it gets a
		// copy: the verifier reads pdu afterwards.
		_, done, _ := d.HandleDownlinkNAS(context.Background(), bytes.Clone(pdu))
		guti, _ := d.GUTI()
		if !done && guti == gutiBefore {
			return
		}
		if verifier == nil {
			t.Fatalf("done %v, GUTI %v with no NAS security context", done, guti)
		}
		if _, err := verifier.Unprotect(pdu, false); err != nil {
			t.Fatalf("done %v, GUTI %v for a PDU that fails verification: %v", done, guti, err)
		}
	})
}
