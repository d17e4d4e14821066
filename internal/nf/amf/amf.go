// Package amf implements the Access and Mobility Management Function: the
// N1/NAS termination point of the core. It runs the UE registration state
// machine of the paper's Fig. 5 — forwarding the AKA challenge, verifying
// HXRES* in its SEAF role, confirming RES* with the AUSF, deriving K_AMF
// through its P-AKA execution environment, activating NAS security,
// assigning the 5G-GUTI, and anchoring PDU sessions through the SMF.
package amf

import (
	"context"
	"crypto/hmac"
	"fmt"
	"sync/atomic"

	"shield5g/internal/admission"
	"shield5g/internal/crypto/kdf"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/nas"
	"shield5g/internal/nf/ausf"
	"shield5g/internal/nf/nrf"
	"shield5g/internal/nf/smf"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/sbi/codec"
	"shield5g/internal/shard"
	"shield5g/internal/simclock"
)

// Service identity.
const (
	ServiceName = "amf"
	NFType      = "AMF"
)

// ueState tracks a UE's registration progress.
type ueState int

const (
	stateIdentifying ueState = iota + 1
	stateAuthenticating
	stateSecuring
	stateAcceptPending
	stateRegistered
)

// abba is the Anti-Bidding down Between Architectures value for this
// release (TS 33.501 Annex A.7.1). It is shared and read-only: the NAS
// encoder and the K_AMF derivation only read it. It stays a byte string,
// not a Fixed value, because an all-zero Fixed value travels as null.
var abba = []byte{0x00, 0x00}

// ueContext is the AMF's per-UE state. Only state is read by other
// goroutines (RegisteredUEs, SUPIOf, PDUSessionTEID status queries while a
// mass run is in flight); the remaining fields are owned by the goroutine
// driving the UE's NAS exchange.
//
// A registered UE keeps what the protocol needs after AKA: its SUPI, NAS
// security context (keys and COUNTs; the K_NASenc schedule only while a
// procedure runs), GUTI, PDU session tunnel and admission class. The
// security context is held by value and re-keyed in place at each
// activation, so the context stays one 256 B object. The AKA
// run's challenge state (the challenge, suci) lives only until
// completeAuth succeeds, and K_SEAF is never kept: it is handed to the
// K_AMF derivation and dropped.
type ueContext struct {
	state atomic.Int32 // holds a ueState
	// supi is the SUPI a GUTI resolved to, from the resolution on, or the
	// one the home network authenticated, from completeAuth on. SUPIOf
	// reports it once the UE is registered.
	supi string
	challenge
	sec  nas.SecurityContext
	guti nas.GUTI
	// prevTMSI is the TMSI a mobility registration arrived with (0: none,
	// TMSIs start at 1). It and the context it resolves to stay until
	// RegistrationComplete acknowledges the new GUTI, so a UE that never
	// saw the accept can still come back with the old one.
	prevTMSI uint32
	resyncOK bool // one resynchronisation attempt allowed
	// suci is the concealed identity the current AKA run started from
	// (nil for a run a GUTI started: supi is set instead), so a lost AUSF
	// session (crash, dropped confirm reply) can be re-authenticated
	// without bouncing the UE; reauthOK allows it once.
	suci     *suci.SUCI
	reauthOK bool
	// pduSession and teid are the UE's PDU session (teid 0: none),
	// released when the UE deregisters. pduSession sits in reauthOK's
	// padding, so the context does not grow.
	pduSession byte
	teid       uint32
	// prio is the admission class assigned at InitialUEMessage, to every
	// context HandleInitialUE creates, the identity fallback's included;
	// follow-up NAS rounds that reach the SBI re-stamp it so downstream
	// throttles keep exempting emergency traffic mid-procedure.
	prio sbi.Priority
}

// challenge is the AKA challenge a UE is answering: the AUSF's
// auth-context ID, RAND and HXRES*. arm is its only writer; completeAuth
// drops it once the run succeeds.
type challenge struct {
	authCtxID codec.AuthCtxID
	rand      [16]byte
	hxresStar [16]byte
}

func (u *ueContext) setState(s ueState) { u.state.Store(int32(s)) }
func (u *ueContext) getState() ueState  { return ueState(u.state.Load()) }

// Config wires an AMF instance.
type Config struct {
	Invoker sbi.Invoker
	// Functions derives K_AMF: the eAMF module.
	Functions *paka.Remote
	// MCC/MNC form the serving PLMN; the serving network name is derived
	// from them.
	MCC, MNC string
	// HMEE marks the instance's trust domain for NRF discovery.
	HMEE bool
	// Admission, when set, gates InitialUEMessage ahead of any enclave
	// work: the registration is classified (emergency > re-registration >
	// fresh attach) and run through per-(gNB, PLMN) token buckets BEFORE
	// the AUSF/P-AKA call. The decision is local — admission never enters
	// the enclave.
	Admission *admission.Controller
	// Replica is this instance's index within its AMF set. It names the
	// NRF instance (sbi.ReplicaName: "amf-1", "amf-r1-1", ...) and the
	// AUSF this AMF binds to — the same replica's, resolved through the
	// NRF once at construction and static afterwards — and it becomes the
	// AMF Pointer of every GUTI the instance mints (1+Replica modulo the
	// 6-bit field, so replica 0 mints pointer 1): TMSIs are
	// only unique per instance, and the pointer is what lets a replica
	// tell a peer's GUTI from its own.
	Replica int
}

// AMF is the access and mobility VNF.
type AMF struct {
	ausf  *ausf.Client
	smf   *smf.Client
	fns   *paka.Remote
	admit *admission.Controller

	mcc, mnc string
	snn      string
	ptr      byte // AMF Pointer of this instance's GUAMI

	// ues and guti are lock-striped so concurrent registrations touching
	// different UEs never serialise on one AMF-wide mutex. guti resolves a
	// TMSI to the RAN UE id whose context minted it, so a mobility
	// registration finds the UE's SUPI there and, once it completes,
	// releases that superseded context.
	ues      *shard.Map[uint64, *ueContext]
	guti     *shard.Map[uint32, uint64] // TMSI -> RAN UE id
	nextTMSI atomic.Uint32

	// Degradation counter: recoveries performed instead of rejecting UEs.
	reauths atomic.Uint64
}

// New creates an AMF and announces it to the NRF. The AMF's NAS interface
// faces the gNB over N1/N2 (Go method calls in this simulation), not the
// SBI, so no SBI server is registered for it.
func New(ctx context.Context, cfg Config) (*AMF, error) {
	if cfg.Invoker == nil {
		return nil, fmt.Errorf("amf: Invoker is required")
	}
	if cfg.Functions == nil {
		return nil, fmt.Errorf("amf: Functions (AKA execution environment) is required")
	}
	if cfg.MCC == "" || cfg.MNC == "" {
		return nil, fmt.Errorf("amf: serving PLMN (MCC/MNC) is required")
	}
	// The AUSF is resolved through the NRF even though its name is known,
	// so the trust-domain filter applies to every replica's binding and a
	// peer the repository does not list fails here.
	ausfClient, err := ausf.DiscoverClient(ctx, cfg.Invoker, sbi.ReplicaName(ausf.ServiceName, cfg.Replica), cfg.HMEE)
	if err != nil {
		return nil, err
	}
	smfClient, err := smf.DiscoverClient(ctx, cfg.Invoker)
	if err != nil {
		return nil, err
	}
	a := &AMF{
		ausf:  ausfClient,
		smf:   smfClient,
		fns:   cfg.Functions,
		admit: cfg.Admission,
		mcc:   cfg.MCC,
		mnc:   cfg.MNC,
		snn:   kdf.ServingNetworkName(cfg.MCC, cfg.MNC),
		ptr:   byte((1 + cfg.Replica) % 64),
		ues:   shard.NewUint64[*ueContext](),
		guti:  shard.NewUint32[uint64](),
	}
	if err := nrf.NewClient(cfg.Invoker).Register(ctx, nrf.NFProfile{
		InstanceID: sbi.ReplicaName(ServiceName, cfg.Replica) + "-1", NFType: NFType, Service: ServiceName, HMEE: cfg.HMEE,
	}); err != nil {
		return nil, fmt.Errorf("amf: NRF registration: %w", err)
	}
	return a, nil
}

// ServingNetworkName reports the SNN this AMF authenticates under.
func (a *AMF) ServingNetworkName() string { return a.snn }

// RegisteredUEs reports the number of UEs in registered state.
func (a *AMF) RegisteredUEs() int {
	n := 0
	a.ues.Range(func(_ uint64, ue *ueContext) bool {
		if ue.getState() == stateRegistered {
			n++
		}
		return true
	})
	return n
}

// HandleInitialUE processes the first NAS message from a UE (via the gNB's
// Initial UE Message) and returns the downlink NAS response.
//
// Each receiver decodes into an Inbox on its own stack and reads the
// message through a type switch, never through a nas.Message method, so
// the decoded message stays there (DESIGN.md section 9). The uplink PDU
// is the AMF's from the call on: it is released once decoded, on every
// path, and the caller must not touch it again; the downlink PDU is the
// caller's.
func (a *AMF) HandleInitialUE(ctx context.Context, ranUEID uint64, nasPDU []byte) ([]byte, error) {
	var in nas.Inbox
	msg, err := nas.DecodeInto(nasPDU, &in)
	nas.Release(nasPDU)
	if err != nil {
		return nil, fmt.Errorf("amf: initial NAS: %w", err)
	}
	rr, ok := msg.(*nas.RegistrationRequest)
	if !ok {
		return nil, fmt.Errorf("amf: initial message is %s, want RegistrationRequest", in.Type())
	}
	// The SecurityModeCommand will select NEA2 and NIA2 (completeAuth): a
	// UE that does not advertise both is refused before any work is spent
	// on it (TS 33.501 §6.7.2), with no context kept.
	if !rr.Capabilities.Supports(nas.AlgNEA2, nas.AlgNIA2) {
		return nas.Encode(&nas.RegistrationReject{Cause: nas.CauseSecurityCapabilitiesMismatch})
	}

	// Classify and gate BEFORE any enclave-bound work: emergency
	// registrations outrank GUTI re-attach, which outranks fresh SUCI
	// attach. The admission decision is a local bucket lookup — it never
	// reaches the AUSF, UDM or P-AKA module.
	class := classify(rr)
	if a.admit != nil {
		// This AMF's controller serves its one PLMN, so the source alone
		// keys the bucket.
		if err := a.admit.Admit(ctx, admission.SourceFrom(ctx), class); err != nil {
			return nil, err
		}
	}
	call := stamp(ctx, class)
	defer call.Release()
	ctx = call

	if err := a.checkPLMN(&rr.Identity); err != nil {
		return nil, err
	}
	ue := &ueContext{prio: class, resyncOK: true, reauthOK: true, suci: rr.Identity.SUCI}
	if rr.Identity.Kind == nas.IdentityTypeGUTI {
		g := &rr.Identity.GUTI
		// Mobility registration: resolve the temporary identity to the
		// stored SUPI and re-authenticate (network-initiated re-auth;
		// the UE never re-exposes its SUCI).
		ran, bound := a.guti.Load(g.TMSI)
		prev, known := a.ues.Load(ran)
		if !bound || !known || g.AMFPointer != a.ptr {
			// No stored context (the GUTI was minted by another AMF — a
			// topology change moved the UE between replicas — or has
			// been released): fall back to the identity procedure
			// (TS 24.501 §5.4.3) and ask for the SUCI.
			ue.setState(stateIdentifying)
			a.ues.Store(ranUEID, ue)
			return nas.Encode(&nas.IdentityRequest{IdentityType: nas.IdentityTypeSUCI})
		}
		ue.supi = prev.supi
		ue.prevTMSI = g.TMSI
	}
	down, err := a.authenticate(ctx, ue)
	if err != nil {
		return nil, err
	}
	a.ues.Store(ranUEID, ue)
	return down, nil
}

// checkPLMN refuses an identity, SUCI or GUTI, from outside the serving
// PLMN, and a registration that carries neither.
func (a *AMF) checkPLMN(id *nas.MobileIdentity) error {
	var mcc, mnc string
	switch id.Kind {
	case nas.IdentityTypeSUCI:
		mcc, mnc = id.SUCI.MCC, id.SUCI.MNC
	case nas.IdentityTypeGUTI:
		mcc, mnc = id.GUTI.MCC, id.GUTI.MNC
	default:
		return fmt.Errorf("amf: registration carries no identity")
	}
	if mcc != a.mcc || mnc != a.mnc {
		return fmt.Errorf("amf: UE PLMN %s%s does not match serving PLMN %s%s", mcc, mnc, a.mcc, a.mnc)
	}
	return nil
}

// authenticate starts an AKA run for ue from the identity it holds, its
// SUCI or the SUPI a GUTI resolved to, and arms the challenge the AUSF
// answered with. It is also the re-authentication of a lost AUSF session,
// which asks again for the same identity.
func (a *AMF) authenticate(ctx context.Context, ue *ueContext) ([]byte, error) {
	auth, err := a.ausf.Authenticate(ctx, &ausf.AuthenticateRequest{SUCI: ue.suci, SUPI: ue.supi, ServingNetworkName: a.snn})
	if err != nil {
		return nil, err
	}
	return a.arm(ue, &auth)
}

// arm makes auth the challenge ue answers and encodes the
// AuthenticationRequest that carries it to the UE.
func (a *AMF) arm(ue *ueContext, auth *ausf.AuthenticateResponse) ([]byte, error) {
	ue.setState(stateAuthenticating)
	ue.authCtxID, ue.rand, ue.hxresStar = auth.AuthCtxID, auth.RAND, auth.HXRESStar
	return nas.Encode(&nas.AuthenticationRequest{NgKSI: 0, ABBA: abba, RAND: auth.RAND, AUTN: auth.AUTN})
}

// classify maps a RegistrationRequest onto its admission priority class.
func classify(rr *nas.RegistrationRequest) sbi.Priority {
	switch {
	case rr.RegistrationType == nas.RegistrationEmergency:
		return sbi.PriorityEmergency
	case rr.Identity.Kind == nas.IdentityTypeGUTI:
		return sbi.PriorityReattach
	default:
		return sbi.PriorityFresh
	}
}

// stamp derives the pooled child simclock.Call that carries the UE's
// admission class down the SBI chain of one round. The caller releases it
// before the round returns.
func stamp(ctx context.Context, class sbi.Priority) *simclock.Call {
	call := simclock.Derive(ctx)
	call.Priority = uint8(class)
	return call
}

// HandleUplinkNAS processes a subsequent uplink NAS message. A nil
// downlink PDU with nil error means no response is due (for example after
// RegistrationComplete). The UE's admission class is stamped on ctx only
// for the rounds that post on the SBI: identity, authentication, PDU
// session and deregistration. nasPDU is released as HandleInitialUE's is.
func (a *AMF) HandleUplinkNAS(ctx context.Context, ranUEID uint64, nasPDU []byte) ([]byte, error) {
	ue, ok := a.ues.Load(ranUEID)
	if !ok {
		nas.Release(nasPDU)
		return nil, fmt.Errorf("amf: no UE context for RAN UE %d", ranUEID)
	}

	switch ue.getState() {
	case stateIdentifying:
		call := stamp(ctx, ue.prio)
		defer call.Release()
		return a.handleIdentifying(call, ue, nasPDU)
	case stateAuthenticating:
		call := stamp(ctx, ue.prio)
		defer call.Release()
		return a.handleAuthenticating(call, ue, nasPDU)
	default:
		return a.handleProtected(ctx, ranUEID, ue, nasPDU)
	}
}

// handleIdentifying completes the identity procedure: the UE answered an
// IdentityRequest with a fresh SUCI, which restarts authentication.
func (a *AMF) handleIdentifying(ctx context.Context, ue *ueContext, nasPDU []byte) ([]byte, error) {
	var in nas.Inbox
	msg, err := nas.DecodeInto(nasPDU, &in)
	nas.Release(nasPDU)
	if err != nil {
		return nil, fmt.Errorf("amf: identity response: %w", err)
	}
	ir, ok := msg.(*nas.IdentityResponse)
	if !ok {
		return nil, fmt.Errorf("amf: unexpected %s while identifying", in.Type())
	}
	if ir.Identity.Kind != nas.IdentityTypeSUCI {
		return nil, fmt.Errorf("amf: identity response carries no SUCI")
	}
	if err := a.checkPLMN(&ir.Identity); err != nil {
		return nil, err
	}
	ue.suci = ir.Identity.SUCI
	return a.authenticate(ctx, ue)
}

func (a *AMF) handleAuthenticating(ctx context.Context, ue *ueContext, nasPDU []byte) ([]byte, error) {
	var in nas.Inbox
	msg, err := nas.DecodeInto(nasPDU, &in)
	nas.Release(nasPDU)
	if err != nil {
		return nil, fmt.Errorf("amf: uplink NAS: %w", err)
	}
	switch m := msg.(type) {
	case *nas.AuthenticationResponse:
		return a.completeAuth(ctx, ue, m)
	case *nas.AuthenticationFailure:
		return a.handleAuthFailure(ctx, ue, m)
	default:
		return nil, fmt.Errorf("amf: unexpected %s while authenticating", in.Type())
	}
}

// completeAuth runs the SEAF HXRES* check, home confirmation, K_AMF
// derivation through the P-AKA environment, and NAS security activation.
func (a *AMF) completeAuth(ctx context.Context, ue *ueContext, m *nas.AuthenticationResponse) ([]byte, error) {
	// SEAF check: HXRES* == SHA-256(RAND || RES*) truncated.
	// HRES* is compare-and-discard: compute it on the stack.
	var hres [kdf.KeyLen128]byte
	if err := kdf.HXResStarInto(hres[:], ue.rand[:], m.ResStar[:]); err != nil {
		return nil, fmt.Errorf("amf: HRES* computation: %w", err)
	}
	if !hmac.Equal(hres[:], ue.hxresStar[:]) {
		return a.reject(ue)
	}
	conf, err := a.ausf.Confirm(ctx, &ausf.ConfirmRequest{AuthCtxID: ue.authCtxID, ResStar: m.ResStar})
	if err != nil {
		// Graceful degradation: CONTEXT_NOT_FOUND means the AUSF no longer
		// holds the auth session — it consumed it while the reply was
		// dropped, crashed, or TTL-expired it. The UE's credentials are
		// fine, so re-run authentication once and re-challenge instead of
		// rejecting the device.
		if sbi.HasCause(err, sbi.CauseContextNotFound) && ue.reauthOK {
			ue.reauthOK = false
			if down, aerr := a.authenticate(ctx, ue); aerr == nil {
				a.reauths.Add(1)
				return down, nil
			}
		}
		return a.reject(ue)
	}
	if ue.supi != "" {
		// A GUTI registration: the home network must have authenticated
		// the SUPI the GUTI resolved to, and the context keeps its string.
		if want, err := codec.ParseSUPI(ue.supi); err != nil || conf.SUPI != want {
			return a.reject(ue)
		}
	} else {
		// A first registration learns the SUPI here: the one string it
		// formats.
		ue.supi = conf.SUPI.String()
	}

	kamf, err := a.fns.DeriveKAMF(ctx, &paka.AMFDeriveKAMFRequest{KSEAF: conf.KSEAF, SUPI: ue.supi, ABBA: abba})
	if err != nil {
		return nil, err
	}
	if err := ue.sec.Activate(kamf.KAMF[:]); err != nil {
		return nil, fmt.Errorf("amf: NAS security context: %w", err)
	}
	ue.setState(stateSecuring)
	// AKA is over: the challenge and the identity it started from are
	// never read again (re-auth and resync only run before this point).
	ue.challenge, ue.suci = challenge{}, nil

	// The algorithms the UE advertised: HandleInitialUE refused any other.
	return ue.sec.Protect(&nas.SecurityModeCommand{
		NgKSI:        0,
		IntegrityAlg: nas.AlgNIA2,
		CipheringAlg: nas.AlgNEA2,
	}, false)
}

func (a *AMF) reject(ue *ueContext) ([]byte, error) {
	ue.setState(stateAuthenticating)
	ue.sec.Clear()
	return nas.Encode(&nas.AuthenticationReject{})
}

func (a *AMF) handleAuthFailure(ctx context.Context, ue *ueContext, m *nas.AuthenticationFailure) ([]byte, error) {
	if m.Cause != nas.CauseSyncFailure || !ue.resyncOK {
		return a.reject(ue)
	}
	ue.resyncOK = false
	auth, err := a.ausf.Resync(ctx, &ausf.ResyncRequest{AuthCtxID: ue.authCtxID, AUTS: m.AUTS})
	if err != nil {
		return a.reject(ue)
	}
	return a.arm(ue, &auth)
}

// Reauths reports how many lost AUSF sessions were recovered by
// re-authentication instead of rejecting the UE.
func (a *AMF) Reauths() uint64 { return a.reauths.Load() }

func (a *AMF) handleProtected(ctx context.Context, ranUEID uint64, ue *ueContext, nasPDU []byte) ([]byte, error) {
	if !ue.sec.Active() {
		nas.Release(nasPDU)
		return nil, fmt.Errorf("amf: no NAS security context for RAN UE %d", ranUEID)
	}
	var in nas.Inbox
	msg, err := ue.sec.UnprotectInto(nasPDU, true, &in)
	nas.Release(nasPDU)
	if err != nil {
		return nil, fmt.Errorf("amf: unprotect uplink NAS: %w", err)
	}

	switch m := msg.(type) {
	case *nas.SecurityModeComplete:
		if ue.getState() != stateSecuring {
			return nil, fmt.Errorf("amf: SecurityModeComplete in state %d", ue.getState())
		}
		guti := a.allocateGUTI(ranUEID)
		ue.guti = guti
		ue.setState(stateAcceptPending)
		return ue.sec.Protect(&nas.RegistrationAccept{GUTI: guti}, false)

	case *nas.RegistrationComplete:
		if ue.getState() != stateAcceptPending {
			return nil, fmt.Errorf("amf: RegistrationComplete in state %d", ue.getState())
		}
		if ue.prevTMSI != 0 {
			// The superseded GUTI and the context it belonged to go; when
			// the UE re-registered under the same RAN UE id, this context
			// already replaced that one.
			if prev, ok := a.guti.LoadAndDelete(ue.prevTMSI); ok && prev != ranUEID {
				a.ues.Delete(prev)
			}
			ue.prevTMSI = 0
		}
		ue.setState(stateRegistered)
		// Registration is over. An idle UE keeps its NAS keys and COUNTs,
		// not the K_NASenc schedule: the next procedure expands it again.
		ue.sec.DropCipher()
		return nil, nil

	case *nas.PDUSessionEstablishmentRequest:
		if ue.getState() != stateRegistered {
			return nil, fmt.Errorf("amf: PDU session request before registration completes")
		}
		supi, err := codec.ParseSUPI(ue.supi)
		if err != nil {
			return nil, err
		}
		call := stamp(ctx, ue.prio)
		defer call.Release()
		sess, err := a.smf.CreateSession(call, &smf.CreateSessionRequest{
			SUPI:      supi,
			SessionID: m.SessionID,
			DNN:       m.DNN,
		})
		if err != nil {
			return nil, err
		}
		ue.teid, ue.pduSession = sess.TEID, m.SessionID
		accept, err := ue.sec.Protect(&nas.PDUSessionEstablishmentAccept{
			SessionID: m.SessionID,
			UEAddress: sess.UEAddress.String(),
		}, false)
		ue.sec.DropCipher()
		return accept, err

	case *nas.DeregistrationRequest:
		if ue.teid != 0 {
			supi, err := codec.ParseSUPI(ue.supi)
			if err != nil {
				return nil, err
			}
			call := stamp(ctx, ue.prio)
			defer call.Release()
			if err := a.smf.ReleaseSession(call, &smf.ReleaseSessionRequest{
				SUPI: supi, SessionID: ue.pduSession,
			}); err != nil {
				return nil, fmt.Errorf("amf: release PDU session %d: %w", ue.pduSession, err)
			}
		}
		a.guti.Delete(ue.guti.TMSI)
		a.ues.Delete(ranUEID)
		return nil, nil

	default:
		return nil, fmt.Errorf("amf: unexpected protected %s", in.Type())
	}
}

func (a *AMF) allocateGUTI(ranUEID uint64) nas.GUTI {
	tmsi := a.nextTMSI.Add(1)
	a.guti.Store(tmsi, ranUEID)
	return nas.GUTI{
		MCC:         a.mcc,
		MNC:         a.mnc,
		AMFRegionID: 0x01,
		AMFSetID:    0x001,
		AMFPointer:  a.ptr,
		TMSI:        tmsi,
	}
}

// PDUSessionTEID reports the uplink tunnel ID of a UE's PDU session — the
// information the AMF delivers to the gNB over N2 in a real core.
func (a *AMF) PDUSessionTEID(ranUEID uint64) (uint32, bool) {
	ue, ok := a.ues.Load(ranUEID)
	if !ok || ue.teid == 0 {
		return 0, false
	}
	return ue.teid, true
}

// SUPIOf reports the authenticated SUPI of a registered RAN UE (tests and
// status displays).
func (a *AMF) SUPIOf(ranUEID uint64) (string, bool) {
	ue, ok := a.ues.Load(ranUEID)
	if !ok || ue.getState() != stateRegistered {
		return "", false
	}
	return ue.supi, true
}
