// Package nrf implements the Network Repository Function: NF instance
// registration and discovery over the Nnrf service-based interface. Every
// VNF in the slice registers here and discovers its peers through it, as in
// the paper's OAI deployment.
package nrf

import (
	"context"
	"sort"
	"sync"

	"shield5g/internal/costmodel"
	"shield5g/internal/sbi"
)

// ServiceName is the NRF's own SBI service name.
const ServiceName = "nrf"

// SBI endpoint paths.
const (
	PathRegister = "/nnrf-nfm/v1/nf-instances/register"
	PathDiscover = "/nnrf-disc/v1/nf-instances"
)

// NFProfile describes one registered network function instance.
type NFProfile struct {
	InstanceID string `json:"instance_id"`
	NFType     string `json:"nf_type"` // "UDM", "AUSF", "AMF", ...
	Service    string `json:"service"` // SBI service name for routing
	// HMEE reports whether the instance runs on an HMEE-enabled host —
	// the 3GPP trust-domain attribute the paper's discussion builds on.
	HMEE bool `json:"hmee"`
}

// RegisterRequest registers or replaces an NF profile.
type RegisterRequest struct {
	Profile NFProfile `json:"profile"`
}

// RegisterResponse acknowledges registration. HeartbeatSeconds is the
// TS 29.510 heartbeat timer an NRF grants; nothing in the slice expires an
// instance, so no NF sends heartbeats.
type RegisterResponse struct {
	HeartbeatSeconds int `json:"heartbeat_seconds"`
}

// DiscoverRequest searches instances by NF type. RequireHMEE restricts
// results to higher-trust-domain hosts.
type DiscoverRequest struct {
	NFType      string `json:"nf_type"`
	RequireHMEE bool   `json:"require_hmee,omitempty"`
}

// DiscoverResponse lists matching profiles.
type DiscoverResponse struct {
	Profiles []NFProfile `json:"profiles"`
}

// The NRF's operations. The register answer grants a heartbeat timer no NF
// reads (see RegisterResponse), so registration is a Send.
var (
	register = sbi.Endpoint[RegisterRequest, RegisterResponse]{Path: PathRegister}
	discover = sbi.Endpoint[DiscoverRequest, DiscoverResponse]{Path: PathDiscover}
)

// NRF is the repository function.
type NRF struct {
	server *sbi.Server

	mu        sync.Mutex
	instances map[string]NFProfile
}

// New creates an NRF and registers its SBI server in the registry.
func New(env *costmodel.Env, registry *sbi.Registry) (*NRF, error) {
	n := &NRF{
		server:    sbi.NewServer(ServiceName, env),
		instances: make(map[string]NFProfile),
	}
	register.Serve(n.server, n.handleRegister)
	discover.Serve(n.server, n.handleDiscover)
	if err := registry.Register(n.server); err != nil {
		return nil, err
	}
	return n, nil
}

func (n *NRF) handleRegister(_ context.Context, req *RegisterRequest, resp *RegisterResponse) error {
	if req.Profile.InstanceID == "" || req.Profile.NFType == "" || req.Profile.Service == "" {
		return sbi.Problem(400, "Bad Request", "MANDATORY_IE_MISSING", "instance_id, nf_type and service are required")
	}
	n.mu.Lock()
	n.instances[req.Profile.InstanceID] = req.Profile
	n.mu.Unlock()
	resp.HeartbeatSeconds = 10
	return nil
}

func (n *NRF) handleDiscover(_ context.Context, req *DiscoverRequest, resp *DiscoverResponse) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, p := range n.instances {
		if p.NFType != req.NFType {
			continue
		}
		if req.RequireHMEE && !p.HMEE {
			continue
		}
		resp.Profiles = append(resp.Profiles, p)
	}
	sort.Slice(resp.Profiles, func(i, j int) bool { return resp.Profiles[i].InstanceID < resp.Profiles[j].InstanceID })
	return nil
}

// Client is the NF-side helper for NRF interactions.
type Client struct {
	invoker sbi.Invoker
}

// NewClient wraps an SBI transport for NRF calls.
func NewClient(invoker sbi.Invoker) *Client { return &Client{invoker: invoker} }

// Register announces an NF instance.
func (c *Client) Register(ctx context.Context, p NFProfile) error {
	return register.Send(ctx, c.invoker, ServiceName, RegisterRequest{Profile: p})
}

// Discover resolves the instance of an NF type that serves the SBI service
// name (restricted to HMEE-enabled hosts when requireHMEE is set). The NRF
// filters by type and trust domain; the service is picked from its answer
// here, so a peer outside the caller's trust domain or absent from the
// repository is TARGET_NF_NOT_FOUND either way.
func (c *Client) Discover(ctx context.Context, nfType, service string, requireHMEE bool) (NFProfile, error) {
	resp, err := discover.Post(ctx, c.invoker, ServiceName, DiscoverRequest{NFType: nfType, RequireHMEE: requireHMEE})
	if err != nil {
		return NFProfile{}, err
	}
	for _, p := range resp.Profiles {
		if p.Service == service {
			return p, nil
		}
	}
	return NFProfile{}, sbi.Problem(404, "Not Found", "TARGET_NF_NOT_FOUND", "no %s instance serves %q", nfType, service)
}
