// Package ue simulates User Equipment: a USIM holding the subscriber
// credentials (K, OPc, SQN_MS), the UE-side 5G-AKA computations (AUTN
// verification, RES*, the key hierarchy down to the NAS keys), SUPI
// concealment, and the NAS registration state machine. A COTS profile
// reproduces the behaviours the paper observed with the OnePlus 8 during
// the over-the-air test.
package ue

import (
	"context"
	"crypto/hmac"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"shield5g/internal/costmodel"
	"shield5g/internal/crypto/kdf"
	"shield5g/internal/crypto/milenage"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/nas"
)

// UE-side AKA errors.
var (
	// ErrMACFailure reports an AUTN whose MAC-A does not verify: the
	// network failed to authenticate itself.
	ErrMACFailure = errors.New("ue: AUTN MAC failure")
	// ErrNoNetwork reports that no supported PLMN was detected.
	ErrNoNetwork = errors.New("ue: no supported network detected")
	// ErrRejected reports an AuthenticationReject from the network.
	ErrRejected = errors.New("ue: authentication rejected by network")
	// ErrRegistrationRejected reports a RegistrationReject from the
	// network.
	ErrRegistrationRejected = errors.New("ue: registration rejected by network")
)

// usimCycles is the modelled USIM computation cost per AKA run.
const usimCycles = 60_000

// hnPubLen is the length of the home-network public key: an X25519 key,
// the ECIES profile A input of SUCI concealment.
const hnPubLen = 32

// routingIndicator is the SUCI routing indicator every device sends,
// TS 23.003's default.
const routingIndicator = "0000"

// COTSProfile reproduces commercial-device quirks the paper reports from
// its OTA test (§V-B6): the OnePlus 8 only detects the test PLMN 00101,
// and needs a specific OxygenOS build for an end-to-end 5G SA connection.
type COTSProfile struct {
	Model             string
	OSVersion         string
	RequiredOSVersion string
	// DetectablePLMNs lists PLMNs the device will attach to; empty means
	// any PLMN is acceptable (simulator behaviour).
	DetectablePLMNs []string
}

// OnePlus8 returns the paper's OTA test device profile (Table IV).
func OnePlus8() COTSProfile {
	return COTSProfile{
		Model:             "OnePlus 8",
		OSVersion:         "Oxygen 11.0.11.11.IN21DA",
		RequiredOSVersion: "Oxygen 11.0.11.11.IN21DA",
		DetectablePLMNs:   []string{"00101"},
	}
}

// Config provisions a UE.
type Config struct {
	SUPI suci.SUPI
	// K and OPc are the USIM credentials.
	K, OPc []byte
	// HomeNetworkPublicKey and HomeNetworkKeyID drive SUCI concealment.
	HomeNetworkPublicKey []byte
	HomeNetworkKeyID     byte
	// Env charges UE-side compute; required.
	Env *costmodel.Env
	// Profile optionally applies COTS-device behaviour.
	Profile *COTSProfile
	// Entropy overrides randomness (tests); nil selects crypto/rand.
	Entropy io.Reader
	// UseNullScheme sends the SUPI with the null protection scheme (no
	// concealment) — permitted for test networks, and useful to
	// demonstrate the privacy difference.
	UseNullScheme bool
}

// UE is one simulated device.
//
// A device keeps keys, not key schedules, the rule the core follows: K
// and OPc are in-struct arrays, and each AKA run expands K's MILENAGE
// schedule for that run only; the NAS context drops its K_NASenc schedule
// when the registration ends.
type UE struct {
	supi suci.SUPI
	// supiStr caches supi.String(): K_AMF derivation needs the IMSI form
	// on every AKA run.
	supiStr    string
	k, opc     [milenage.KeyLen]byte
	hnPub      [hnPubLen]byte
	hnKeyID    byte
	env        *costmodel.Env
	profile    *COTSProfile
	entropy    io.Reader
	nullScheme bool

	sqnMS [6]byte

	// Per-registration state. The key material lives in in-struct arrays
	// so a registration retains it without per-run heap allocations.
	snn     string
	resStar [kdf.KeyLen128]byte
	kamf    [kdf.KeyLen256]byte
	// sec is allocated at the first AKA run and re-keyed in place by every
	// later one; guti at the first RegistrationAccept and overwritten in
	// place by every later one.
	sec      *nas.SecurityContext
	guti     *nas.GUTI
	lastAddr string

	// emergency marks the device as performing emergency registrations
	// (TS 24.501 registration type 0x04); the AMF's admission controller
	// never sheds this class.
	emergency bool
}

// SetEmergency marks or clears the device's emergency-registration mode.
func (u *UE) SetEmergency(v bool) { u.emergency = v }

// New provisions a UE.
func New(cfg Config) (*UE, error) {
	if err := cfg.SUPI.Validate(); err != nil {
		return nil, err
	}
	if cfg.Env == nil {
		return nil, errors.New("ue: Config.Env is required")
	}
	if len(cfg.K) != milenage.KeyLen || len(cfg.OPc) != milenage.OPLen {
		return nil, fmt.Errorf("ue: USIM credentials: K and OPc are %d bytes, got %d and %d",
			milenage.KeyLen, len(cfg.K), len(cfg.OPc))
	}
	if !cfg.UseNullScheme && len(cfg.HomeNetworkPublicKey) != hnPubLen {
		return nil, fmt.Errorf("ue: home network public key length %d, want %d",
			len(cfg.HomeNetworkPublicKey), hnPubLen)
	}
	entropy := cfg.Entropy
	if entropy == nil {
		entropy = rand.Reader
	}
	u := &UE{
		supi:       cfg.SUPI,
		supiStr:    cfg.SUPI.String(),
		hnKeyID:    cfg.HomeNetworkKeyID,
		env:        cfg.Env,
		profile:    cfg.Profile,
		entropy:    entropy,
		nullScheme: cfg.UseNullScheme,
	}
	copy(u.k[:], cfg.K)
	copy(u.opc[:], cfg.OPc)
	// A null-scheme device never conceals, so its key may be absent.
	copy(u.hnPub[:], cfg.HomeNetworkPublicKey)
	return u, nil
}

// SUPI returns the device's permanent identity.
func (u *UE) SUPI() suci.SUPI { return u.supi }

// SUPIString returns the cached IMSI form of the permanent identity —
// the shard-routing key of a replicated core. Reusing the cached string
// keeps SUPI-affinity routing off the allocation budget.
func (u *UE) SUPIString() string { return u.supiStr }

// GUTI returns the temporary identity assigned at registration, if any.
func (u *UE) GUTI() (nas.GUTI, bool) {
	if u.guti == nil {
		return nas.GUTI{}, false
	}
	return *u.guti, true
}

// UEAddress returns the PDU session address assigned by the core, if any.
func (u *UE) UEAddress() string { return u.lastAddr }

// DetectNetwork applies the COTS profile's PLMN scan: the paper observed
// that the OnePlus 8 would not detect the OAI gNB under custom mobile
// country or network codes, only the test PLMN 00101.
func (u *UE) DetectNetwork(broadcastPLMN string) error {
	if u.profile == nil || len(u.profile.DetectablePLMNs) == 0 {
		return nil
	}
	for _, p := range u.profile.DetectablePLMNs {
		if p == broadcastPLMN {
			if u.profile.RequiredOSVersion != "" && u.profile.OSVersion != u.profile.RequiredOSVersion {
				return fmt.Errorf("%w: %s on %q requires OS %q for 5G SA",
					ErrNoNetwork, u.profile.Model, u.profile.OSVersion, u.profile.RequiredOSVersion)
			}
			return nil
		}
	}
	return fmt.Errorf("%w: %s does not detect PLMN %s (supported: %v)",
		ErrNoNetwork, u.profile.Model, broadcastPLMN, u.profile.DetectablePLMNs)
}

// BuildRegistrationRequest conceals the SUPI and produces the initial NAS
// registration request for the given serving network.
func (u *UE) BuildRegistrationRequest(ctx context.Context, snn string) ([]byte, error) {
	u.env.Charge(ctx, usimCycles) // ECIES concealment + NAS encoding
	sc, err := u.concealIdentity()
	if err != nil {
		return nil, err
	}
	u.snn = snn
	u.clearNAS()
	u.guti = nil
	regType := nas.RegistrationInitial
	if u.emergency {
		regType = nas.RegistrationEmergency
	}
	return nas.Encode(&nas.RegistrationRequest{
		RegistrationType: regType,
		NgKSI:            0,
		Identity:         nas.MobileIdentity{Kind: nas.IdentityTypeSUCI, SUCI: sc},
		Capabilities:     nas.Capabilities(nas.AlgNEA2, nas.AlgNIA2),
	})
}

// clearNAS zeroes the NAS security context, if the device has one, at the
// start of a registration: the old keys are wiped, not left for the
// collector, and the context waits for the next AKA run to re-key it.
func (u *UE) clearNAS() {
	if u.sec != nil {
		u.sec.Clear()
	}
}

// secured reports whether the device holds NAS keys.
func (u *UE) secured() bool { return u.sec != nil && u.sec.Active() }

// concealIdentity produces the SUCI under the provisioned protection
// scheme.
func (u *UE) concealIdentity() (*suci.SUCI, error) {
	if u.nullScheme {
		sc, err := suci.ConcealNull(u.supi, routingIndicator)
		if err != nil {
			return nil, fmt.Errorf("ue: null-scheme SUCI: %w", err)
		}
		return sc, nil
	}
	sc, err := suci.Conceal(u.entropy, u.supi, routingIndicator, u.hnPub[:], u.hnKeyID)
	if err != nil {
		return nil, fmt.Errorf("ue: conceal SUPI: %w", err)
	}
	return sc, nil
}

// BuildReRegistrationRequest produces a mobility registration request
// using the 5G-GUTI assigned at the previous registration: the permanent
// identity is never re-exposed over the air.
func (u *UE) BuildReRegistrationRequest(ctx context.Context, snn string) ([]byte, error) {
	if u.guti == nil {
		return nil, errors.New("ue: no stored GUTI; perform an initial registration first")
	}
	u.env.Charge(ctx, usimCycles/4)
	u.snn = snn
	u.clearNAS()
	return nas.Encode(&nas.RegistrationRequest{
		RegistrationType: nas.RegistrationMobility,
		NgKSI:            0,
		Identity:         nas.MobileIdentity{Kind: nas.IdentityTypeGUTI, GUTI: *u.guti},
		Capabilities:     nas.Capabilities(nas.AlgNEA2, nas.AlgNIA2),
	})
}

// HandleDownlinkNAS advances the UE state machine with one downlink NAS
// PDU. It returns the uplink response (nil when none) and done=true once
// registration has completed. The downlink PDU is the device's from the
// call on: it is released once decoded, on every path, and the caller
// must not touch it again; the uplink PDU is the caller's.
func (u *UE) HandleDownlinkNAS(ctx context.Context, pdu []byte) (uplink []byte, done bool, err error) {
	// Post-AKA messages are security protected; branch on the header
	// instead of decoding speculatively so the protected path does not
	// pay DecodeInto's error construction. The message is decoded into in
	// and read through type switches only, so it stays on this stack.
	var in nas.Inbox
	var msg nas.Message
	var derr error
	if nas.IsProtected(pdu) {
		if !u.secured() {
			nas.Release(pdu)
			return nil, false, fmt.Errorf("ue: protected downlink NAS before security activation")
		}
		msg, derr = u.sec.UnprotectInto(pdu, false, &in)
		nas.Release(pdu)
		if derr != nil {
			return nil, false, fmt.Errorf("ue: unprotect downlink NAS: %w", derr)
		}
	} else {
		msg, derr = nas.DecodeInto(pdu, &in)
		nas.Release(pdu)
		if derr != nil {
			return nil, false, fmt.Errorf("ue: undecodable downlink NAS: %w", derr)
		}
		// Without integrity protection the UE processes only the messages
		// that run before a security context exists (TS 24.501 §4.4.4.2).
		switch msg.(type) {
		case *nas.IdentityRequest, *nas.AuthenticationRequest, *nas.AuthenticationReject, *nas.RegistrationReject:
		default:
			return nil, false, fmt.Errorf("ue: %s without integrity protection", in.Type())
		}
	}

	switch m := msg.(type) {
	case *nas.IdentityRequest:
		return u.handleIdentityRequest(ctx, m)
	case *nas.AuthenticationRequest:
		return u.handleAuthRequest(ctx, m)
	case *nas.AuthenticationReject:
		return nil, false, ErrRejected
	case *nas.RegistrationReject:
		return nil, false, fmt.Errorf("%w: 5GMM cause #%d", ErrRegistrationRejected, m.Cause)
	case *nas.SecurityModeCommand:
		u.env.Charge(ctx, usimCycles/4)
		up, err := u.sec.Protect(&nas.SecurityModeComplete{}, true)
		return up, false, err
	case *nas.RegistrationAccept:
		if u.guti == nil {
			u.guti = new(nas.GUTI)
		}
		*u.guti = m.GUTI
		up, err := u.sec.Protect(&nas.RegistrationComplete{}, true)
		// Registration is over: keep the NAS keys and COUNTs, not the
		// K_NASenc schedule, as the AMF does on accepting the complete.
		u.sec.DropCipher()
		return up, true, err
	case *nas.PDUSessionEstablishmentAccept:
		u.lastAddr = m.UEAddress
		return nil, true, nil
	default:
		return nil, false, fmt.Errorf("ue: unexpected downlink %s", in.Type())
	}
}

// handleIdentityRequest answers the network's identity procedure with a
// freshly concealed SUCI (the permanent identity still never travels in
// clear text).
func (u *UE) handleIdentityRequest(ctx context.Context, m *nas.IdentityRequest) ([]byte, bool, error) {
	if m.IdentityType != nas.IdentityTypeSUCI {
		return nil, false, fmt.Errorf("ue: unsupported identity type %d requested", m.IdentityType)
	}
	u.env.Charge(ctx, usimCycles)
	sc, err := u.concealIdentity()
	if err != nil {
		return nil, false, err
	}
	up, err := nas.Encode(&nas.IdentityResponse{Identity: nas.MobileIdentity{Kind: nas.IdentityTypeSUCI, SUCI: sc}})
	return up, false, err
}

// akaScratch holds one AKA run's MILENAGE outputs: the OUT1 block
// (MAC-A || MAC-S) and the OUT2..4 backing that RES, CK, IK and AK alias.
type akaScratch struct {
	out1 [16]byte
	out2 [48]byte
}

var akaScratchPool = sync.Pool{New: func() any { return new(akaScratch) }}

// putAKAScratch scrubs before recycling: CK, IK and AK are key material,
// and pooled memory must not carry them between runs (the rule
// milenage's own scratch and hashpool.PutHMAC follow).
func putAKAScratch(s *akaScratch) {
	*s = akaScratch{}
	akaScratchPool.Put(s)
}

// handleAuthRequest runs the USIM's AUTN verification and RES*/key
// derivation (TS 33.501 §6.1.3.2), including the resynchronisation path.
// K's MILENAGE schedule is expanded for this one run.
func (u *UE) handleAuthRequest(ctx context.Context, m *nas.AuthenticationRequest) ([]byte, bool, error) {
	u.env.Charge(ctx, usimCycles)

	var mil milenage.Cipher
	if err := mil.Init(u.k[:], u.opc[:]); err != nil {
		return nil, false, fmt.Errorf("ue: USIM credentials: %w", err)
	}
	s := akaScratchPool.Get().(*akaScratch)
	defer putAKAScratch(s)
	res, ck, ik, ak, err := mil.F2345Into(s.out2[:], m.RAND[:])
	if err != nil {
		return nil, false, fmt.Errorf("ue: f2345: %w", err)
	}
	sqnAK, amfField, macA, err := kdf.SplitAUTN(m.AUTN[:])
	if err != nil {
		return nil, false, fmt.Errorf("ue: AUTN: %w", err)
	}
	// SQN_HE = (SQN XOR AK) XOR AK, on the stack: it only feeds the local
	// MAC check and SQN_MS update. AK is always 6 bytes.
	var sqnHE [6]byte
	for i := range sqnHE {
		sqnHE[i] = sqnAK[i] ^ ak[i]
	}
	if err := mil.F1Into(s.out1[:], m.RAND[:], sqnHE[:], amfField); err != nil {
		return nil, false, fmt.Errorf("ue: f1: %w", err)
	}
	if !hmac.Equal(macA, s.out1[:milenage.MACLen]) {
		up, err := nas.Encode(&nas.AuthenticationFailure{Cause: nas.CauseMACFailure})
		return up, false, errors.Join(ErrMACFailure, err)
	}

	// Freshness: the network SQN must be strictly ahead of the USIM's.
	if !sqnAhead(sqnHE[:], u.sqnMS[:]) {
		auts, err := u.buildAUTS(&mil, s, m.RAND[:])
		if err != nil {
			return nil, false, err
		}
		up, err := nas.Encode(&nas.AuthenticationFailure{Cause: nas.CauseSyncFailure, AUTS: auts})
		return up, false, err
	}
	copy(u.sqnMS[:], sqnHE[:])

	// Derive the full hierarchy on the UE side. K_AUSF and K_SEAF are
	// transient links in the chain here — they live on the stack; only
	// RES* and K_AMF are retained.
	if err := kdf.ResStarInto(u.resStar[:], ck, ik, u.snn, m.RAND[:], res); err != nil {
		return nil, false, fmt.Errorf("ue: RES*: %w", err)
	}
	var kausf, kseaf [kdf.KeyLen256]byte
	if err := kdf.KAUSFInto(kausf[:], ck, ik, u.snn, sqnAK); err != nil {
		return nil, false, fmt.Errorf("ue: K_AUSF: %w", err)
	}
	if err := kdf.KSEAFInto(kseaf[:], kausf[:], u.snn); err != nil {
		return nil, false, fmt.Errorf("ue: K_SEAF: %w", err)
	}
	if err := kdf.KAMFInto(u.kamf[:], kseaf[:], u.supiStr, m.ABBA); err != nil {
		return nil, false, fmt.Errorf("ue: K_AMF: %w", err)
	}
	if u.sec == nil {
		u.sec, err = nas.NewSecurityContext(u.kamf[:])
	} else {
		err = u.sec.Activate(u.kamf[:])
	}
	if err != nil {
		return nil, false, fmt.Errorf("ue: NAS security: %w", err)
	}

	resp := &nas.AuthenticationResponse{}
	resp.ResStar = u.resStar
	up, err := nas.Encode(resp)
	return up, false, err
}

// buildAUTS assembles the resynchronisation token (TS 33.102 §6.3.3) with
// the AKA run's schedule mil, writing MAC-S through the run's scratch s.
func (u *UE) buildAUTS(mil *milenage.Cipher, s *akaScratch, randBytes []byte) ([]byte, error) {
	akStar, err := mil.F5Star(randBytes)
	if err != nil {
		return nil, fmt.Errorf("ue: f5*: %w", err)
	}
	concealed, err := kdf.XorSQNAK(u.sqnMS[:], akStar)
	if err != nil {
		return nil, fmt.Errorf("ue: AUTS: %w", err)
	}
	if err := mil.F1Into(s.out1[:], randBytes, u.sqnMS[:], []byte{0x00, 0x00}); err != nil {
		return nil, fmt.Errorf("ue: f1*: %w", err)
	}
	return append(concealed, s.out1[milenage.MACLen:]...), nil
}

// BuildPDUSessionRequest produces a protected PDU session establishment
// request after registration.
func (u *UE) BuildPDUSessionRequest(ctx context.Context, sessionID byte, dnn string) ([]byte, error) {
	if !u.secured() {
		return nil, errors.New("ue: not registered")
	}
	u.env.Charge(ctx, usimCycles/4)
	return u.sec.Protect(&nas.PDUSessionEstablishmentRequest{SessionID: sessionID, DNN: dnn}, true)
}

// BuildDeregistrationRequest produces a protected detach request.
func (u *UE) BuildDeregistrationRequest(ctx context.Context) ([]byte, error) {
	if !u.secured() {
		return nil, errors.New("ue: not registered")
	}
	u.env.Charge(ctx, usimCycles/4)
	return u.sec.Protect(&nas.DeregistrationRequest{NgKSI: 0}, true)
}

// SetSQN overrides the USIM sequence number (tests and resync scenarios).
func (u *UE) SetSQN(sqn []byte) error {
	if len(sqn) != 6 {
		return fmt.Errorf("ue: SQN length %d, want 6", len(sqn))
	}
	copy(u.sqnMS[:], sqn)
	return nil
}

// sqnAhead reports whether a > b as 48-bit big-endian counters.
func sqnAhead(a, b []byte) bool {
	return sqnValue(a) > sqnValue(b)
}

func sqnValue(sqn []byte) uint64 {
	var buf [8]byte
	copy(buf[2:], sqn)
	return binary.BigEndian.Uint64(buf[:])
}
