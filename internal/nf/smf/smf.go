// Package smf implements a minimal Session Management Function: PDU
// session establishment on behalf of the AMF, UE address allocation, and
// N4 programming of the UPF. Together with the UPF it forms the data
// session anchor the paper's end-to-end session setup measurement covers.
package smf

import (
	"context"
	"fmt"
	"net/netip"
	"sync"

	"shield5g/internal/costmodel"
	"shield5g/internal/nf/nrf"
	"shield5g/internal/nf/upf"
	"shield5g/internal/sbi"
	"shield5g/internal/sbi/codec"
)

// Service identity.
const (
	ServiceName = "smf"
	NFType      = "SMF"
)

// SBI endpoint paths.
const (
	PathCreateSession  = "/nsmf-pdusession/v1/sm-contexts/create"
	PathReleaseSession = "/nsmf-pdusession/v1/sm-contexts/release"
)

// CreateSessionRequest asks for a PDU session for a registered UE.
type CreateSessionRequest struct {
	SUPI      codec.SUPI `json:"supi"`
	SessionID byte       `json:"session_id"`
	DNN       string     `json:"dnn"`
}

// CreateSessionResponse returns the allocated UE address and uplink TEID.
type CreateSessionResponse struct {
	UEAddress netip.Addr `json:"ue_address"`
	TEID      uint32     `json:"teid"`
}

// ReleaseSessionRequest tears a PDU session down.
type ReleaseSessionRequest struct {
	SUPI      codec.SUPI `json:"supi"`
	SessionID byte       `json:"session_id"`
}

// Empty is an empty response body.
type Empty struct{}

// The SMF's operations.
var (
	createSession  = sbi.Endpoint[CreateSessionRequest, CreateSessionResponse]{Path: PathCreateSession}
	releaseSession = sbi.Endpoint[ReleaseSessionRequest, Empty]{Path: PathReleaseSession}
)

// Config wires an SMF instance.
type Config struct {
	Env      *costmodel.Env
	Registry *sbi.Registry
	Invoker  sbi.Invoker
}

// SMF is the session-management VNF.
type SMF struct {
	server  *sbi.Server
	invoker sbi.Invoker

	mu       sync.Mutex
	nextIP   uint32
	nextSEID uint64
	sessions map[sessionKey]smContext
}

// sessionKey names a PDU session: the UE's SUPI and its session ID.
type sessionKey struct {
	supi codec.SUPI
	id   byte
}

// smContext is a PDU session as the SMF files it: its N4 SEID, and whether
// the UPF has installed its rule yet.
type smContext struct {
	seid        uint64
	established bool
}

// New creates an SMF, registers its SBI server and announces it to the
// NRF.
func New(ctx context.Context, cfg Config) (*SMF, error) {
	if cfg.Env == nil || cfg.Registry == nil || cfg.Invoker == nil {
		return nil, fmt.Errorf("smf: Env, Registry and Invoker are required")
	}
	s := &SMF{
		server:   sbi.NewServer(ServiceName, cfg.Env),
		invoker:  cfg.Invoker,
		nextIP:   0x0A3C0001, // 10.60.0.1
		sessions: make(map[sessionKey]smContext),
	}
	createSession.Serve(s.server, s.handleCreate)
	releaseSession.Serve(s.server, s.handleRelease)
	if err := cfg.Registry.Register(s.server); err != nil {
		return nil, err
	}
	if err := nrf.NewClient(cfg.Invoker).Register(ctx, nrf.NFProfile{
		InstanceID: "smf-1", NFType: NFType, Service: ServiceName,
	}); err != nil {
		return nil, fmt.Errorf("smf: NRF registration: %w", err)
	}
	return s, nil
}

func (s *SMF) handleCreate(ctx context.Context, req *CreateSessionRequest, resp *CreateSessionResponse) error {
	if req.SUPI == (codec.SUPI{}) || req.DNN == "" {
		return sbi.Problem(400, "Bad Request", "MANDATORY_IE_MISSING", "SUPI and DNN required")
	}
	key := sessionKey{req.SUPI, req.SessionID}

	// The session is filed before the UPF is asked and marked established
	// after: only this call writes its entry until then, because a
	// duplicate create and a release both refuse a pending session.
	s.mu.Lock()
	if _, dup := s.sessions[key]; dup {
		s.mu.Unlock()
		return sbi.Problem(409, "Conflict", "SESSION_EXISTS", "%s/%d", req.SUPI, req.SessionID)
	}
	s.nextIP++
	s.nextSEID++
	ip := s.nextIP
	seid := s.nextSEID
	s.sessions[key] = smContext{seid: seid}
	s.mu.Unlock()

	ueAddr := netip.AddrFrom4([4]byte{byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)})
	est, err := upf.Establish.Post(ctx, s.invoker, upf.ServiceName, upf.EstablishRequest{SEID: seid, UEAddress: ueAddr})
	s.mu.Lock()
	if err != nil {
		delete(s.sessions, key)
	} else {
		s.sessions[key] = smContext{seid: seid, established: true}
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	resp.UEAddress, resp.TEID = ueAddr, est.TEID
	return nil
}

func (s *SMF) handleRelease(ctx context.Context, req *ReleaseSessionRequest, _ *Empty) error {
	key := sessionKey{req.SUPI, req.SessionID}
	s.mu.Lock()
	sc, ok := s.sessions[key]
	s.mu.Unlock()
	switch {
	case !ok:
		return sbi.Problem(404, "Not Found", sbi.CauseSessionNotFound, "%s/%d", req.SUPI, req.SessionID)
	case !sc.established:
		// Its establish is in flight: releasing now would leave the UPF
		// a rule that no session owns once the establish lands.
		return sbi.Problem(409, "Conflict", "SESSION_PENDING", "%s/%d", req.SUPI, req.SessionID)
	}
	// The session is forgotten only once the UPF's rule is gone: a failed
	// release or a lost reply keeps it for the retry, whose UPF answer is
	// then 404 for a rule the first attempt already removed.
	err := upf.Release.Send(ctx, s.invoker, upf.ServiceName, upf.ReleaseRequest{SEID: sc.seid})
	if err != nil && !sbi.HasCause(err, sbi.CauseSessionNotFound) {
		return err
	}
	s.mu.Lock()
	// A concurrent release may have finished first and a new session
	// been filed under the key since; only this SEID's entry goes.
	if s.sessions[key] == sc {
		delete(s.sessions, key)
	}
	s.mu.Unlock()
	return nil
}

// SessionCount reports active sessions.
func (s *SMF) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Client is the AMF-side helper for SMF calls.
type Client struct {
	invoker sbi.Invoker
	service string
}

// DiscoverClient resolves an SMF instance through the NRF.
func DiscoverClient(ctx context.Context, invoker sbi.Invoker) (*Client, error) {
	p, err := nrf.NewClient(invoker).Discover(ctx, NFType, ServiceName, false)
	if err != nil {
		return nil, fmt.Errorf("smf: discovery: %w", err)
	}
	return &Client{invoker: invoker, service: p.Service}, nil
}

// CreateSession establishes a PDU session.
func (c *Client) CreateSession(ctx context.Context, req *CreateSessionRequest) (CreateSessionResponse, error) {
	return createSession.Post(ctx, c.invoker, c.service, *req)
}

// ReleaseSession tears a PDU session down.
func (c *Client) ReleaseSession(ctx context.Context, req *ReleaseSessionRequest) error {
	return releaseSession.Send(ctx, c.invoker, c.service, *req)
}
