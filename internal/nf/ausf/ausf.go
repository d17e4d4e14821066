// Package ausf implements the Authentication Server Function: it anchors
// 5G-AKA in the home network, fetching HE AVs from the UDM, deriving the
// Security Edge AV (HXRES*, K_SEAF) through its P-AKA execution
// environment, verifying the UE's RES*, and releasing K_SEAF to the
// serving network on success (paper Fig. 5 step 4).
package ausf

import (
	"context"
	"crypto/hmac"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"shield5g/internal/costmodel"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/nf/nrf"
	"shield5g/internal/nf/udm"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/sbi/codec"
	"shield5g/internal/shard"
)

// Service identity.
const (
	ServiceName = "ausf"
	NFType      = "AUSF"
)

// SBI endpoint paths.
const (
	PathAuthenticate = "/nausf-auth/v1/ue-authentications"
	PathConfirm      = "/nausf-auth/v1/ue-authentications/confirm"
	PathResync       = "/nausf-auth/v1/ue-authentications/resync"
)

// AuthenticateRequest starts a 5G-AKA run for a UE.
type AuthenticateRequest struct {
	SUCI               *suci.SUCI `json:"suci,omitempty"`
	SUPI               string     `json:"supi,omitempty"`
	ServingNetworkName string     `json:"serving_network_name"`
}

// AuthenticateResponse carries the SE AV material for the serving network:
// RAND, AUTN and HXRES* (never XRES* itself).
type AuthenticateResponse struct {
	AuthCtxID string        `json:"auth_ctx_id"`
	RAND      codec.Bytes16 `json:"rand"`
	AUTN      codec.Bytes16 `json:"autn"`
	HXRESStar codec.Bytes16 `json:"hxres_star"`
}

// ConfirmRequest delivers the UE's RES* for home-network verification.
type ConfirmRequest struct {
	AuthCtxID string        `json:"auth_ctx_id"`
	ResStar   codec.Bytes16 `json:"res_star"`
}

// ConfirmResponse releases the anchor key on success.
type ConfirmResponse struct {
	SUPI  string        `json:"supi"`
	KSEAF codec.Bytes32 `json:"kseaf"`
}

// ResyncRequest forwards a UE synchronisation failure to the home network
// and returns a fresh SE AV.
type ResyncRequest struct {
	AuthCtxID string `json:"auth_ctx_id"`
	AUTS      []byte `json:"auts"`
}

// session is one in-flight authentication.
type session struct {
	supi     string
	snn      string
	rand     [16]byte
	xresStar [16]byte
	kseaf    [32]byte
	// created stamps the session on the virtual clock for TTL expiry.
	created time.Duration
}

// PendingAuthTTL is the virtual-time lifetime of an unredeemed auth
// context. It is orders of magnitude above any registration's span (even
// one absorbing an enclave reload), so in-flight AKA runs never expire;
// only abandoned ones — a UE that failed mid-registration and never
// confirmed — are reaped, keeping the session map bounded under faults.
const PendingAuthTTL = 30 * time.Minute

// sweepEvery triggers an opportunistic expiry sweep every N new
// authentications, so cleanup needs no background goroutine (which would
// break virtual-time determinism).
const sweepEvery = 64

// Config wires an AUSF instance.
type Config struct {
	Env      *costmodel.Env
	Registry *sbi.Registry
	Invoker  sbi.Invoker
	// Functions derives HXRES*/K_SEAF: the eAUSF module.
	Functions paka.AUSFFunctions
	// HMEE marks the instance's trust domain for NRF discovery.
	HMEE bool
	// Replica is this instance's index in a sharded deployment. It names
	// the SBI service and NRF instance (sbi.ReplicaName) and the UDM this
	// AUSF binds to: the same replica's, resolved through the NRF once at
	// construction and static afterwards.
	Replica int
}

// AUSF is the authentication server VNF.
type AUSF struct {
	env    *costmodel.Env
	server *sbi.Server
	udm    *udm.Client
	fns    paka.AUSFFunctions

	// sessions is lock-striped: concurrent AKA runs for different UEs
	// insert and redeem auth contexts without a shared mutex.
	sessions *shard.Map[string, *session]
	nextID   atomic.Uint64

	sinceSweep atomic.Uint64
	expired    atomic.Uint64
}

// New creates an AUSF, registers its SBI server and announces it to the
// NRF.
func New(ctx context.Context, cfg Config) (*AUSF, error) {
	if cfg.Env == nil || cfg.Registry == nil || cfg.Invoker == nil {
		return nil, fmt.Errorf("ausf: Env, Registry and Invoker are required")
	}
	if cfg.Functions == nil {
		return nil, fmt.Errorf("ausf: Functions (AKA execution environment) is required")
	}
	// The UDM is resolved through the NRF even though its name is known: for
	// an HMEE-enabled AUSF the home network function must also live in the
	// higher trust domain (the 3GPP trust-domain placement of the paper's
	// discussion), and a peer the repository does not list fails here, not
	// at the first registration. Only construction asks the NRF; the
	// request path uses the resolved binding.
	udmClient, err := udm.DiscoverClient(ctx, cfg.Invoker, sbi.ReplicaName(udm.ServiceName, cfg.Replica), cfg.HMEE)
	if err != nil {
		return nil, err
	}
	service := sbi.ReplicaName(ServiceName, cfg.Replica)
	a := &AUSF{
		env:      cfg.Env,
		server:   sbi.NewServer(service, cfg.Env),
		udm:      udmClient,
		fns:      cfg.Functions,
		sessions: shard.NewString[*session](),
	}
	a.server.HandleDual(PathAuthenticate, sbi.BinHandlerInto(a.handleAuthenticate))
	a.server.HandleDual(PathConfirm, sbi.BinHandlerInto(a.handleConfirm))
	a.server.HandleDual(PathResync, sbi.BinHandlerInto(a.handleResync))
	if err := cfg.Registry.Register(a.server); err != nil {
		return nil, err
	}
	if err := nrf.NewClient(cfg.Invoker).Register(ctx, nrf.NFProfile{
		InstanceID: service + "-1", NFType: NFType, Service: service, HMEE: cfg.HMEE,
	}); err != nil {
		return nil, fmt.Errorf("ausf: NRF registration: %w", err)
	}
	return a, nil
}

func (a *AUSF) handleAuthenticate(ctx context.Context, req *AuthenticateRequest, resp *AuthenticateResponse) error {
	if req.ServingNetworkName == "" {
		return sbi.Problem(400, "Bad Request", "MANDATORY_IE_MISSING", "serving network name required")
	}
	return a.newChallenge(ctx, req.SUCI, req.SUPI, req.ServingNetworkName, resp)
}

var (
	genAuthReqPool  = sync.Pool{New: func() any { return new(udm.GenerateAuthDataRequest) }}
	deriveSEReqPool = sync.Pool{New: func() any { return new(paka.AUSFDeriveSERequest) }}
)

// newChallenge fetches an HE AV, turns it into an SE AV session and
// writes the challenge into resp.
//
//shieldlint:hotpath
func (a *AUSF) newChallenge(ctx context.Context, id *suci.SUCI, supi, snn string, resp *AuthenticateResponse) error {
	// The outbound request structs are pooled: the client stubs marshal
	// them synchronously and nothing downstream retains them.
	greq := genAuthReqPool.Get().(*udm.GenerateAuthDataRequest)
	greq.SUCI, greq.SUPI, greq.ServingNetworkName = id, supi, snn
	he, err := a.udm.GenerateAuthData(ctx, greq)
	*greq = udm.GenerateAuthDataRequest{}
	genAuthReqPool.Put(greq)
	if err != nil {
		return err
	}
	sreq := deriveSEReqPool.Get().(*paka.AUSFDeriveSERequest)
	sreq.RAND, sreq.XRESStar, sreq.KAUSF, sreq.SNN = he.RAND, he.XRESStar, he.KAUSF, snn
	se, err := a.fns.DeriveSE(ctx, sreq)
	*sreq = paka.AUSFDeriveSERequest{}
	deriveSEReqPool.Put(sreq)
	if err != nil {
		return err
	}

	// The ID is the counter as 16 hex digits: fixed width, so its length —
	// and every message and charge that carries it — does not depend on
	// the order in which concurrent registrations reach the counter.
	// Assembled in stack scratch (8 raw bytes, then their hex) so it costs
	// exactly one string allocation.
	var idBuf [24]byte
	raw := binary.BigEndian.AppendUint64(idBuf[:0], a.nextID.Add(1))
	ctxID := string(hex.AppendEncode(idBuf[8:8], raw))
	a.sessions.Store(ctxID, &session{
		supi:     he.SUPI,
		snn:      snn,
		rand:     he.RAND,
		xresStar: he.XRESStar,
		kseaf:    se.KSEAF,
		created:  a.env.Clock.Now(),
	})
	if a.sinceSweep.Add(1)%sweepEvery == 0 {
		a.SweepExpired()
	}

	resp.AuthCtxID, resp.RAND, resp.AUTN, resp.HXRESStar = ctxID, he.RAND, he.AUTN, se.HXRESStar
	return nil
}

func (a *AUSF) handleConfirm(_ context.Context, req *ConfirmRequest, resp *ConfirmResponse) error {
	// One-shot redemption: lookup and consume must be a single atomic
	// step so a replayed confirm can never race a successful one.
	s, ok := a.sessions.LoadAndDelete(req.AuthCtxID)
	if !ok {
		return sbi.Problem(404, "Not Found", "CONTEXT_NOT_FOUND", "auth context %s", req.AuthCtxID)
	}
	// Home-network control of authentication: compare RES* with the
	// stored XRES* (TS 33.501 §6.1.3.2).
	if !hmac.Equal(req.ResStar[:], s.xresStar[:]) {
		return sbi.Problem(403, "Forbidden", "AUTHENTICATION_REJECTED", "RES* mismatch for %s", s.supi)
	}
	resp.SUPI, resp.KSEAF = s.supi, s.kseaf
	return nil
}

func (a *AUSF) handleResync(ctx context.Context, req *ResyncRequest, resp *AuthenticateResponse) error {
	s, ok := a.sessions.LoadAndDelete(req.AuthCtxID)
	if !ok {
		return sbi.Problem(404, "Not Found", "CONTEXT_NOT_FOUND", "auth context %s", req.AuthCtxID)
	}
	if err := a.udm.Resync(ctx, &udm.ResyncRequest{SUPI: s.supi, RAND: s.rand[:], AUTS: req.AUTS}); err != nil {
		return err
	}
	// Fresh vector after the home network rebased the SQN.
	return a.newChallenge(ctx, nil, s.supi, s.snn, resp)
}

// PendingSessions reports in-flight authentications (tests/status).
func (a *AUSF) PendingSessions() int {
	return a.sessions.Len()
}

// SweepExpired reaps auth contexts older than the pending-auth TTL on the
// virtual clock and reports how many it removed. Abandoned registrations
// (the UE failed and never confirmed) otherwise accumulate forever under
// injected faults.
func (a *AUSF) SweepExpired() int {
	now := a.env.Clock.Now()
	var stale []string
	a.sessions.Range(func(id string, s *session) bool {
		if now-s.created > PendingAuthTTL {
			stale = append(stale, id)
		}
		return true
	})
	// Delete outside Range: the stripe locks are not reentrant. A session
	// confirmed between the scan and the delete was consumed by
	// LoadAndDelete already, making the extra Delete a no-op.
	for _, id := range stale {
		a.sessions.Delete(id)
	}
	a.expired.Add(uint64(len(stale)))
	return len(stale)
}

// ExpiredSessions reports the total auth contexts reaped by TTL expiry.
func (a *AUSF) ExpiredSessions() uint64 { return a.expired.Load() }

// Client is the AMF/SEAF-side helper for AUSF calls.
type Client struct {
	invoker sbi.Invoker
	service string
}

// NewClientFor wraps an SBI transport for AUSF calls against a specific
// replica's service name, with no NRF round trip and no trust-domain check
// (tooling and measurement harnesses; NFs bind through DiscoverClient).
func NewClientFor(invoker sbi.Invoker, service string) *Client {
	return &Client{invoker: invoker, service: service}
}

// DiscoverClient resolves the AUSF instance serving service through the
// NRF (restricted to HMEE-enabled hosts when requireHMEE is set).
func DiscoverClient(ctx context.Context, invoker sbi.Invoker, service string, requireHMEE bool) (*Client, error) {
	p, err := nrf.NewClient(invoker).Discover(ctx, NFType, service, requireHMEE)
	if err != nil {
		return nil, fmt.Errorf("ausf: discovery: %w", err)
	}
	return NewClientFor(invoker, p.Service), nil
}

// Authenticate starts an AKA run.
func (c *Client) Authenticate(ctx context.Context, req *AuthenticateRequest) (*AuthenticateResponse, error) {
	var resp AuthenticateResponse
	if err := c.invoker.Post(ctx, c.service, PathAuthenticate, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Confirm delivers RES* and collects K_SEAF.
func (c *Client) Confirm(ctx context.Context, req *ConfirmRequest) (*ConfirmResponse, error) {
	var resp ConfirmResponse
	if err := c.invoker.Post(ctx, c.service, PathConfirm, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Resync reports an AUTS and collects a fresh challenge.
func (c *Client) Resync(ctx context.Context, req *ResyncRequest) (*AuthenticateResponse, error) {
	var resp AuthenticateResponse
	if err := c.invoker.Post(ctx, c.service, PathResync, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
