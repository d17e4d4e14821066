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
	"sync"
	"sync/atomic"

	"shield5g/internal/admission"
	"shield5g/internal/costmodel"
	"shield5g/internal/crypto/kdf"
	"shield5g/internal/nas"
	"shield5g/internal/nf/ausf"
	"shield5g/internal/nf/nrf"
	"shield5g/internal/nf/smf"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/shard"
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

// abba returns the Anti-Bidding down Between Architectures value for this
// release (TS 33.501 Annex A.7.1). A fresh slice per call keeps the value
// immutable to handlers.
func abba() []byte { return []byte{0x00, 0x00} }

// ueContext is the AMF's per-UE state. Only state is read by other
// goroutines (RegisteredUEs, SUPIOf, PDUSessionTEID status queries while a
// mass run is in flight); the remaining fields are owned by the goroutine
// driving the UE's NAS exchange.
//
// A registered UE keeps what the protocol needs after AKA: its SUPI, NAS
// security context (keys and COUNTs; the K_NASenc schedule only while a
// procedure runs), GUTI, PDU session tunnel and admission class. The AKA
// run's challenge state (authCtxID, rand, hxresStar, pendingAuth) lives
// only until completeAuth succeeds, and K_SEAF is never kept: it is handed
// to the K_AMF derivation and dropped.
type ueContext struct {
	state     atomic.Int32 // holds a ueState
	supi      string
	authCtxID string
	rand      []byte
	hxresStar []byte
	sec       *nas.SecurityContext
	guti      nas.GUTI
	// prevTMSI is the TMSI a mobility registration arrived with (0: none,
	// TMSIs start at 1). It and the context it resolves to stay until
	// RegistrationComplete acknowledges the new GUTI, so a UE that never
	// saw the accept can still come back with the old one.
	prevTMSI uint32
	resyncOK bool // one resynchronisation attempt allowed
	// pendingAuth retains the identity the current AKA run started from,
	// so a lost AUSF session (crash, dropped confirm reply) can be
	// re-authenticated without bouncing the UE; reauthOK allows it once.
	pendingAuth *ausf.AuthenticateRequest
	reauthOK    bool
	// pduSession and teid are the UE's PDU session (teid 0: none),
	// released when the UE deregisters. pduSession sits in reauthOK's
	// padding, so the context does not grow.
	pduSession byte
	teid       uint32
	// prio is the admission class assigned at InitialUEMessage; follow-up
	// NAS rounds re-stamp it so downstream throttles keep exempting
	// emergency traffic mid-procedure.
	prio sbi.Priority
}

func (u *ueContext) setState(s ueState) { u.state.Store(int32(s)) }
func (u *ueContext) getState() ueState  { return ueState(u.state.Load()) }
func newUEContext(s ueState) *ueContext {
	u := &ueContext{}
	u.setState(s)
	return u
}

// Config wires an AMF instance.
type Config struct {
	Env      *costmodel.Env
	Registry *sbi.Registry
	Invoker  sbi.Invoker
	// Functions derives K_AMF: the eAMF module.
	Functions paka.AMFFunctions
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
	env   *costmodel.Env
	ausf  *ausf.Client
	smf   *smf.Client
	nrfc  *nrf.Client
	fns   paka.AMFFunctions
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
	if cfg.Env == nil || cfg.Registry == nil || cfg.Invoker == nil {
		return nil, fmt.Errorf("amf: Env, Registry and Invoker are required")
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
		env:   cfg.Env,
		ausf:  ausfClient,
		smf:   smfClient,
		nrfc:  nrf.NewClient(cfg.Invoker),
		fns:   cfg.Functions,
		admit: cfg.Admission,
		mcc:   cfg.MCC,
		mnc:   cfg.MNC,
		snn:   kdf.ServingNetworkName(cfg.MCC, cfg.MNC),
		ptr:   byte((1 + cfg.Replica) % 64),
		ues:   shard.NewUint64[*ueContext](),
		guti:  shard.NewUint32[uint64](),
	}
	if err := a.nrfc.Register(ctx, nrf.NFProfile{
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
func (a *AMF) HandleInitialUE(ctx context.Context, ranUEID uint64, nasPDU []byte) ([]byte, error) {
	msg, err := nas.Decode(nasPDU)
	if err != nil {
		return nil, fmt.Errorf("amf: initial NAS: %w", err)
	}
	rr, ok := msg.(*nas.RegistrationRequest)
	if !ok {
		return nil, fmt.Errorf("amf: initial message is %s, want RegistrationRequest", msg.Type())
	}

	// Classify and gate BEFORE any enclave-bound work: emergency
	// registrations outrank GUTI re-attach, which outranks fresh SUCI
	// attach. The admission decision is a local bucket lookup — it never
	// reaches the AUSF, UDM or P-AKA module.
	class := classify(rr)
	if a.admit != nil {
		source := admission.SourceFrom(ctx) + "/" + a.mcc + a.mnc
		if err := a.admit.Admit(ctx, source, class); err != nil {
			return nil, err
		}
	}
	ctx = sbi.WithPriority(ctx, class)

	authReq := &ausf.AuthenticateRequest{ServingNetworkName: a.snn}
	var prevTMSI uint32
	switch {
	case rr.Identity.SUCI != nil:
		// PLMN check: the UE must be asking for this serving network.
		if rr.Identity.SUCI.MCC != a.mcc || rr.Identity.SUCI.MNC != a.mnc {
			return nil, fmt.Errorf("amf: UE PLMN %s%s does not match serving PLMN %s%s",
				rr.Identity.SUCI.MCC, rr.Identity.SUCI.MNC, a.mcc, a.mnc)
		}
		authReq.SUCI = rr.Identity.SUCI
	case rr.Identity.GUTI != nil:
		// Mobility registration: resolve the temporary identity to the
		// stored SUPI and re-authenticate (network-initiated re-auth;
		// the UE never re-exposes its SUCI).
		g := rr.Identity.GUTI
		if g.MCC != a.mcc || g.MNC != a.mnc {
			return nil, fmt.Errorf("amf: GUTI PLMN %s%s does not match serving PLMN %s%s",
				g.MCC, g.MNC, a.mcc, a.mnc)
		}
		ran, bound := a.guti.Load(g.TMSI)
		prev, known := a.ues.Load(ran)
		if !bound || !known || g.AMFPointer != a.ptr {
			// No stored context (the GUTI was minted by another AMF — a
			// topology change moved the UE between replicas — or has
			// been released): fall back to the identity procedure
			// (TS 24.501 §5.4.3) and ask for the SUCI.
			ue := newUEContext(stateIdentifying)
			ue.resyncOK = true
			a.ues.Store(ranUEID, ue)
			return nas.Encode(&nas.IdentityRequest{IdentityType: nas.IdentityTypeSUCI})
		}
		authReq.SUPI = prev.supi
		prevTMSI = g.TMSI
	default:
		return nil, fmt.Errorf("amf: registration carries no identity")
	}

	auth, err := a.ausf.Authenticate(ctx, authReq)
	if err != nil {
		return nil, err
	}

	ue := newUEContext(stateAuthenticating)
	ue.authCtxID = auth.AuthCtxID
	ue.rand = auth.RAND
	ue.hxresStar = auth.HXRESStar
	ue.resyncOK = true
	ue.pendingAuth = authReq
	ue.reauthOK = true
	ue.prio = class
	ue.prevTMSI = prevTMSI
	a.ues.Store(ranUEID, ue)

	return a.challenge(auth)
}

// classify maps a RegistrationRequest onto its admission priority class.
func classify(rr *nas.RegistrationRequest) sbi.Priority {
	switch {
	case rr.RegistrationType == nas.RegistrationEmergency:
		return sbi.PriorityEmergency
	case rr.Identity.GUTI != nil:
		return sbi.PriorityReattach
	default:
		return sbi.PriorityFresh
	}
}

func (a *AMF) challenge(auth *ausf.AuthenticateResponse) ([]byte, error) {
	req := &nas.AuthenticationRequest{NgKSI: 0, ABBA: abba()}
	copy(req.RAND[:], auth.RAND)
	copy(req.AUTN[:], auth.AUTN)
	return nas.Encode(req)
}

// HandleUplinkNAS processes a subsequent uplink NAS message. A nil
// downlink PDU with nil error means no response is due (for example after
// RegistrationComplete).
func (a *AMF) HandleUplinkNAS(ctx context.Context, ranUEID uint64, nasPDU []byte) ([]byte, error) {
	ue, ok := a.ues.Load(ranUEID)
	if !ok {
		return nil, fmt.Errorf("amf: no UE context for RAN UE %d", ranUEID)
	}
	ctx = sbi.WithPriority(ctx, ue.prio)

	switch ue.getState() {
	case stateIdentifying:
		return a.handleIdentifying(ctx, ue, nasPDU)
	case stateAuthenticating:
		return a.handleAuthenticating(ctx, ranUEID, ue, nasPDU)
	default:
		return a.handleProtected(ctx, ranUEID, ue, nasPDU)
	}
}

// handleIdentifying completes the identity procedure: the UE answered an
// IdentityRequest with a fresh SUCI, which restarts authentication.
func (a *AMF) handleIdentifying(ctx context.Context, ue *ueContext, nasPDU []byte) ([]byte, error) {
	msg, err := nas.Decode(nasPDU)
	if err != nil {
		return nil, fmt.Errorf("amf: identity response: %w", err)
	}
	ir, ok := msg.(*nas.IdentityResponse)
	if !ok {
		return nil, fmt.Errorf("amf: unexpected %s while identifying", msg.Type())
	}
	if ir.Identity.SUCI == nil {
		return nil, fmt.Errorf("amf: identity response carries no SUCI")
	}
	if ir.Identity.SUCI.MCC != a.mcc || ir.Identity.SUCI.MNC != a.mnc {
		return nil, fmt.Errorf("amf: identified UE PLMN %s%s does not match serving PLMN %s%s",
			ir.Identity.SUCI.MCC, ir.Identity.SUCI.MNC, a.mcc, a.mnc)
	}
	authReq := &ausf.AuthenticateRequest{
		SUCI:               ir.Identity.SUCI,
		ServingNetworkName: a.snn,
	}
	auth, err := a.ausf.Authenticate(ctx, authReq)
	if err != nil {
		return nil, err
	}
	ue.setState(stateAuthenticating)
	ue.authCtxID = auth.AuthCtxID
	ue.rand = auth.RAND
	ue.hxresStar = auth.HXRESStar
	ue.pendingAuth = authReq
	ue.reauthOK = true
	return a.challenge(auth)
}

func (a *AMF) handleAuthenticating(ctx context.Context, ranUEID uint64, ue *ueContext, nasPDU []byte) ([]byte, error) {
	msg, err := nas.Decode(nasPDU)
	if err != nil {
		return nil, fmt.Errorf("amf: uplink NAS: %w", err)
	}
	switch m := msg.(type) {
	case *nas.AuthenticationResponse:
		return a.completeAuth(ctx, ue, m)
	case *nas.AuthenticationFailure:
		return a.handleAuthFailure(ctx, ranUEID, ue, m)
	default:
		return nil, fmt.Errorf("amf: unexpected %s while authenticating", msg.Type())
	}
}

var (
	confirmReqPool    = sync.Pool{New: func() any { return new(ausf.ConfirmRequest) }}
	deriveKAMFReqPool = sync.Pool{New: func() any { return new(paka.AMFDeriveKAMFRequest) }}
)

// completeAuth runs the SEAF HXRES* check, home confirmation, K_AMF
// derivation through the P-AKA environment, and NAS security activation.
//
//shieldlint:hotpath
func (a *AMF) completeAuth(ctx context.Context, ue *ueContext, m *nas.AuthenticationResponse) ([]byte, error) {
	// SEAF check: HXRES* == SHA-256(RAND || RES*) truncated.
	// HRES* is compare-and-discard: compute it on the stack.
	var hres [kdf.KeyLen128]byte
	if err := kdf.HXResStarInto(hres[:], ue.rand, m.ResStar[:]); err != nil {
		return nil, fmt.Errorf("amf: HRES* computation: %w", err)
	}
	if !hmac.Equal(hres[:], ue.hxresStar) {
		return a.reject(ue)
	}
	// Outbound request structs are pooled: the client stubs marshal them
	// synchronously and nothing downstream retains them.
	creq := confirmReqPool.Get().(*ausf.ConfirmRequest)
	creq.AuthCtxID, creq.ResStar = ue.authCtxID, m.ResStar[:]
	conf, err := a.ausf.Confirm(ctx, creq)
	*creq = ausf.ConfirmRequest{}
	confirmReqPool.Put(creq)
	if err != nil {
		// Graceful degradation: CONTEXT_NOT_FOUND means the AUSF no longer
		// holds the auth session — it consumed it while the reply was
		// dropped, crashed, or TTL-expired it. The UE's credentials are
		// fine, so re-run authentication once and re-challenge instead of
		// rejecting the device.
		if sbi.HasCause(err, "CONTEXT_NOT_FOUND") && ue.reauthOK && ue.pendingAuth != nil {
			ue.reauthOK = false
			if auth, aerr := a.ausf.Authenticate(ctx, ue.pendingAuth); aerr == nil {
				a.reauths.Add(1)
				ue.setState(stateAuthenticating)
				ue.authCtxID = auth.AuthCtxID
				ue.rand = auth.RAND
				ue.hxresStar = auth.HXRESStar
				return a.challenge(auth)
			}
		}
		return a.reject(ue)
	}
	ue.supi = conf.SUPI

	kreq := deriveKAMFReqPool.Get().(*paka.AMFDeriveKAMFRequest)
	kreq.KSEAF, kreq.SUPI, kreq.ABBA = conf.KSEAF, conf.SUPI, abba()
	kamf, err := a.fns.DeriveKAMF(ctx, kreq)
	*kreq = paka.AMFDeriveKAMFRequest{}
	deriveKAMFReqPool.Put(kreq)
	if err != nil {
		return nil, err
	}
	sec, err := nas.NewSecurityContext(kamf.KAMF)
	if err != nil {
		return nil, fmt.Errorf("amf: NAS security context: %w", err)
	}
	ue.sec = sec
	ue.setState(stateSecuring)
	// AKA is over: the challenge and the request it answered are never
	// read again (re-auth and resync only run before this point).
	ue.authCtxID, ue.rand, ue.hxresStar, ue.pendingAuth = "", nil, nil, nil

	return sec.Protect(&nas.SecurityModeCommand{
		NgKSI:        0,
		IntegrityAlg: nas.AlgNIA2,
		CipheringAlg: nas.AlgNEA2,
	}, false)
}

func (a *AMF) reject(ue *ueContext) ([]byte, error) {
	ue.setState(stateAuthenticating)
	ue.sec = nil
	return nas.Encode(&nas.AuthenticationReject{})
}

func (a *AMF) handleAuthFailure(ctx context.Context, _ uint64, ue *ueContext, m *nas.AuthenticationFailure) ([]byte, error) {
	if m.Cause != nas.CauseSyncFailure || !ue.resyncOK {
		return a.reject(ue)
	}
	ue.resyncOK = false
	auth, err := a.ausf.Resync(ctx, &ausf.ResyncRequest{AuthCtxID: ue.authCtxID, AUTS: m.AUTS})
	if err != nil {
		return a.reject(ue)
	}
	ue.authCtxID = auth.AuthCtxID
	ue.rand = auth.RAND
	ue.hxresStar = auth.HXRESStar
	return a.challenge(auth)
}

// Reauths reports how many lost AUSF sessions were recovered by
// re-authentication instead of rejecting the UE.
func (a *AMF) Reauths() uint64 { return a.reauths.Load() }

func (a *AMF) handleProtected(ctx context.Context, ranUEID uint64, ue *ueContext, nasPDU []byte) ([]byte, error) {
	if ue.sec == nil {
		return nil, fmt.Errorf("amf: no NAS security context for RAN UE %d", ranUEID)
	}
	msg, err := ue.sec.Unprotect(nasPDU, true)
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
		sess, err := a.smf.CreateSession(ctx, &smf.CreateSessionRequest{
			SUPI:      ue.supi,
			SessionID: m.SessionID,
			DNN:       m.DNN,
		})
		if err != nil {
			return nil, err
		}
		ue.teid, ue.pduSession = sess.TEID, m.SessionID
		accept, err := ue.sec.Protect(&nas.PDUSessionEstablishmentAccept{
			SessionID: m.SessionID,
			UEAddress: sess.UEAddress,
		}, false)
		ue.sec.DropCipher()
		return accept, err

	case *nas.DeregistrationRequest:
		if ue.teid != 0 {
			if err := a.smf.ReleaseSession(ctx, &smf.ReleaseSessionRequest{
				SUPI: ue.supi, SessionID: ue.pduSession,
			}); err != nil {
				return nil, fmt.Errorf("amf: release PDU session %d: %w", ue.pduSession, err)
			}
		}
		a.guti.Delete(ue.guti.TMSI)
		a.ues.Delete(ranUEID)
		return nil, nil

	default:
		return nil, fmt.Errorf("amf: unexpected protected %s", msg.Type())
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
