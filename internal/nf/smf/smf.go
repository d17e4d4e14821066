// Package smf implements a minimal Session Management Function: PDU
// session establishment on behalf of the AMF, UE address allocation, and
// N4 programming of the UPF. Together with the UPF it forms the data
// session anchor the paper's end-to-end session setup measurement covers.
package smf

import (
	"context"
	"fmt"
	"sync"

	"shield5g/internal/costmodel"
	"shield5g/internal/nf/nrf"
	"shield5g/internal/nf/upf"
	"shield5g/internal/sbi"
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
	SUPI      string `json:"supi"`
	SessionID byte   `json:"session_id"`
	DNN       string `json:"dnn"`
}

// CreateSessionResponse returns the allocated UE address and uplink TEID.
type CreateSessionResponse struct {
	UEAddress string `json:"ue_address"`
	TEID      uint32 `json:"teid"`
}

// ReleaseSessionRequest tears a PDU session down.
type ReleaseSessionRequest struct {
	SUPI      string `json:"supi"`
	SessionID byte   `json:"session_id"`
}

// Empty is an empty response body.
type Empty struct{}

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
	nrfc    *nrf.Client

	mu       sync.Mutex
	nextIP   uint32
	nextSEID uint64
	sessions map[string]uint64 // supi/sessionID -> SEID
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
		nrfc:     nrf.NewClient(cfg.Invoker),
		nextIP:   0x0A3C0001, // 10.60.0.1
		sessions: make(map[string]uint64),
	}
	s.server.HandleDual(PathCreateSession, sbi.BinHandler(s.handleCreate))
	s.server.HandleDual(PathReleaseSession, sbi.BinHandler(s.handleRelease))
	if err := cfg.Registry.Register(s.server); err != nil {
		return nil, err
	}
	if err := s.nrfc.Register(ctx, nrf.NFProfile{
		InstanceID: "smf-1", NFType: NFType, Service: ServiceName,
	}); err != nil {
		return nil, fmt.Errorf("smf: NRF registration: %w", err)
	}
	return s, nil
}

func sessionKey(supi string, id byte) string { return fmt.Sprintf("%s/%d", supi, id) }

func (s *SMF) handleCreate(ctx context.Context, req *CreateSessionRequest) (*CreateSessionResponse, error) {
	if req.SUPI == "" || req.DNN == "" {
		return nil, sbi.Problem(400, "Bad Request", "MANDATORY_IE_MISSING", "SUPI and DNN required")
	}
	key := sessionKey(req.SUPI, req.SessionID)

	s.mu.Lock()
	if _, dup := s.sessions[key]; dup {
		s.mu.Unlock()
		return nil, sbi.Problem(409, "Conflict", "SESSION_EXISTS", "%s", key)
	}
	s.nextIP++
	s.nextSEID++
	ip := s.nextIP
	seid := s.nextSEID
	s.sessions[key] = seid
	s.mu.Unlock()

	ueAddr := fmt.Sprintf("%d.%d.%d.%d", ip>>24, (ip>>16)&0xff, (ip>>8)&0xff, ip&0xff)
	var est upf.EstablishResponse
	if err := s.invoker.Post(ctx, upf.ServiceName, upf.PathEstablish,
		&upf.EstablishRequest{SEID: seid, UEAddress: ueAddr}, &est); err != nil {
		s.mu.Lock()
		delete(s.sessions, key)
		s.mu.Unlock()
		return nil, err
	}
	return &CreateSessionResponse{UEAddress: ueAddr, TEID: est.TEID}, nil
}

func (s *SMF) handleRelease(ctx context.Context, req *ReleaseSessionRequest) (*Empty, error) {
	key := sessionKey(req.SUPI, req.SessionID)
	s.mu.Lock()
	seid, ok := s.sessions[key]
	if ok {
		delete(s.sessions, key)
	}
	s.mu.Unlock()
	if !ok {
		return nil, sbi.Problem(404, "Not Found", "SESSION_NOT_FOUND", "%s", key)
	}
	if err := s.invoker.Post(ctx, upf.ServiceName, upf.PathRelease, &upf.ReleaseRequest{SEID: seid}, nil); err != nil {
		return nil, err
	}
	return &Empty{}, nil
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
func (c *Client) CreateSession(ctx context.Context, req *CreateSessionRequest) (*CreateSessionResponse, error) {
	var resp CreateSessionResponse
	if err := c.invoker.Post(ctx, c.service, PathCreateSession, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ReleaseSession tears a PDU session down.
func (c *Client) ReleaseSession(ctx context.Context, req *ReleaseSessionRequest) error {
	return c.invoker.Post(ctx, c.service, PathReleaseSession, req, nil)
}
