// Package sbi implements the 5G service-based interface plumbing: JSON
// REST endpoints between network functions, 3GPP ProblemDetails error
// reporting, and one transport: an in-process client that charges modelled
// TLS/HTTP/loopback costs to virtual time. Every server can also be mounted
// on net/http (Server.ServeHTTP, served by `core5g -serve` for curl); no
// network function dials out over HTTP.
//
// In the paper every VNF and P-AKA module is an HTTPS REST server on the
// OAI Docker bridge; the cost structure of those hops (TLS records, HTTP
// framing, kernel loopback) is what this package models.
package sbi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"shield5g/internal/costmodel"
	"shield5g/internal/sbi/codec"
)

// ProblemDetails is the 3GPP TS 29.500 error body carried on SBI failures.
type ProblemDetails struct {
	Title  string `json:"title"`
	Status int    `json:"status"`
	Detail string `json:"detail,omitempty"`
	Cause  string `json:"cause,omitempty"`
	// RetryAfter mirrors the HTTP Retry-After header a congested NF
	// attaches to 429/503 responses (TS 29.500 §6.4): the minimum
	// virtual time the client should wait before retrying.
	RetryAfter time.Duration `json:"retryAfter,omitempty"`
	// OCI carries the server's overload-control information on shed
	// responses (the `3gpp-Sbi-Oci` header of TS 29.500 §6.4).
	OCI *OCI `json:"oci,omitempty"`
}

// Fields implements codec.Message.
func (p *ProblemDetails) Fields(f *codec.Fields) {
	f.String("title", &p.Title, 0)
	codec.Int(f, "status", &p.Status, 0)
	f.String("detail", &p.Detail, codec.OmitEmpty)
	f.String("cause", &p.Cause, codec.OmitEmpty)
	codec.Int(f, "retryAfter", &p.RetryAfter, codec.OmitEmpty)
	codec.KeptPtr(f, "oci", &p.OCI, codec.OmitEmpty, nil)
}

// Fields implements codec.Message.
func (o *OCI) Fields(f *codec.Fields) {
	codec.Int(f, "load", &o.Load, 0)
	codec.Int(f, "reduction", &o.Reduction, codec.OmitEmpty)
	codec.Int(f, "retryAfter", &o.RetryAfter, codec.OmitEmpty)
	codec.Uint(f, "seq", &o.Seq)
}

// Error implements error.
func (p *ProblemDetails) Error() string {
	return fmt.Sprintf("sbi: %d %s: %s (%s)", p.Status, p.Title, p.Detail, p.Cause)
}

// Problem builds a ProblemDetails error.
func Problem(status int, title, cause, format string, args ...any) *ProblemDetails {
	return &ProblemDetails{
		Title:  title,
		Status: status,
		Cause:  cause,
		Detail: fmt.Sprintf(format, args...),
	}
}

// ProblemDetails causes shared across packages (TS 29.500 Table 5.2.7.2-1
// plus the local additions used by the resilience layer).
const (
	CauseTimeout     = "TIMEOUT"
	CauseCircuitOpen = "CIRCUIT_OPEN"
	CauseCongestion  = "NF_CONGESTION"
	CauseUnreachable = "TARGET_NF_NOT_REACHABLE"
	CauseSystem      = "SYSTEM_FAILURE"
	// CauseUnsupportedMedia is returned when a binary SBI frame arrives
	// over real HTTP, which only speaks JSON (Server.ServeHTTP).
	CauseUnsupportedMedia = "UNSUPPORTED_MEDIA_TYPE"
	// The not-found causes a recovery path branches on: the UDM
	// re-provisions a key its eUDM lost on USER_NOT_FOUND, the AMF
	// re-authenticates a UE whose AUSF context is gone on
	// CONTEXT_NOT_FOUND, and the SMF takes the UPF's SESSION_NOT_FOUND on
	// a release to mean the rule is already gone.
	CauseUserNotFound    = "USER_NOT_FOUND"
	CauseContextNotFound = "CONTEXT_NOT_FOUND"
	CauseSessionNotFound = "SESSION_NOT_FOUND"
)

// AsProblem extracts the ProblemDetails from an error chain.
func AsProblem(err error) (*ProblemDetails, bool) {
	var pd *ProblemDetails
	ok := errors.As(err, &pd)
	return pd, ok
}

// HasCause reports whether err carries a ProblemDetails with the cause.
func HasCause(err error, cause string) bool {
	if pd, ok := AsProblem(err); ok {
		return pd.Cause == cause
	}
	return false
}

// HandlerFunc serves one SBI endpoint: request bytes in — JSON or, from
// an in-process binary client, a frame (see binary.go) — response bytes
// out in the same format. Returning a *ProblemDetails preserves status and
// cause across the transport; any other error becomes a 500.
//
// Ownership: the request body is on loan for the duration of the call —
// handlers must not retain it. Ownership of a returned body transfers to
// the transport, which releases it into the body pool after delivery
// (see MarshalBody/ReleaseBody); handlers must therefore return bodies
// they own exclusively, e.g. from MarshalBody, never shared or static
// slices they will read again.
type HandlerFunc func(ctx context.Context, body []byte) ([]byte, error)

// Server is one NF service instance exposing SBI endpoints.
type Server struct {
	name string
	env  *costmodel.Env

	mu     sync.RWMutex
	routes map[string]route
	// meter is the overload-control load meter (see overload.go); nil
	// until EnableOverload and inert until armed.
	meter *loadMeter
}

// ReplicaName is the one naming rule of a sharded core: replica r's
// instance of the service base. Replica 0 keeps the base name ("udm",
// "eudm-paka", ...); replicas r >= 1 append "-r<r>". Every NF derives its
// own service name, its NRF instance ID (ReplicaName + "-1") and its
// same-replica peer from it.
func ReplicaName(base string, r int) string {
	if r == 0 {
		return base
	}
	return fmt.Sprintf("%s-r%d", base, r)
}

// NewServer creates a named SBI server charging costs through env.
func NewServer(name string, env *costmodel.Env) *Server {
	return &Server{
		name:   name,
		env:    env,
		routes: make(map[string]route),
	}
}

// Name returns the service name used for discovery and routing.
func (s *Server) Name() string { return s.name }

// Paths lists the registered endpoint paths.
func (s *Server) Paths() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.routes))
	for p := range s.routes {
		out = append(out, p)
	}
	return out
}

func (s *Server) lookup(path string) (HandlerFunc, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.routes[path]
	return r.h, ok
}

// serve dispatches one request, charging server-side record processing.
func (s *Server) serve(ctx context.Context, path string, body []byte) ([]byte, error) {
	if s.env != nil {
		m := s.env.Model
		s.env.Charge(ctx, m.TLSRecordCost(len(body))+m.HTTPCost(len(body)))
	}
	h, ok := s.lookup(path)
	if !ok {
		return nil, Problem(404, "Not Found", "RESOURCE_NOT_FOUND", "%s has no endpoint %s", s.name, path)
	}
	if m := s.loadMeter(); m != nil {
		// Overload control: run the request through the virtual queue —
		// it may pay a FIFO wait or be shed with 503 OVERLOAD + OCI.
		if pd := m.admit(ctx, s.name, path); pd != nil {
			return nil, pd
		}
	}
	resp, err := h(ctx, body)
	if s.env != nil && err == nil {
		m := s.env.Model
		s.env.Charge(ctx, m.TLSRecordCost(len(resp))+m.HTTPCost(len(resp)))
	}
	return resp, err
}

// Registry resolves service names to in-process servers. It stands in for
// the Docker bridge DNS of the paper's deployment.
type Registry struct {
	mu      sync.RWMutex
	servers map[string]*Server
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{servers: make(map[string]*Server)}
}

// Register adds a server; duplicate names are an error.
func (r *Registry) Register(s *Server) error {
	if s == nil {
		return errors.New("sbi: nil server")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.servers[s.Name()]; dup {
		return fmt.Errorf("sbi: service %q already registered", s.Name())
	}
	r.servers[s.Name()] = s
	return nil
}

// Deregister removes a server by name.
func (r *Registry) Deregister(name string) {
	r.mu.Lock()
	delete(r.servers, name)
	r.mu.Unlock()
}

// Lookup resolves a service name.
func (r *Registry) Lookup(name string) (*Server, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.servers[name]
	return s, ok
}

// Names lists registered service names.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.servers))
	for n := range r.servers {
		out = append(out, n)
	}
	return out
}

// Client issues SBI requests from one NF to others over the in-process
// modelled transport. It charges the client-side TLS/HTTP processing, the
// loopback round trip, and a mutual-TLS handshake on the first contact
// with each peer (3GPP TS 33.210 inter-NF security).
type Client struct {
	from     string
	env      *costmodel.Env
	registry *Registry

	mu        sync.Mutex
	connected map[string]bool
	// binary opts this client into binary frames (EnableBinary).
	binary bool

	// oci records the freshest overload advert seen per peer; the
	// resilience layer reads it through the OCISource interface.
	oci ociTable
}

// NewClient creates a client identified as from.
func NewClient(from string, env *costmodel.Env, registry *Registry) *Client {
	return &Client{
		from:      from,
		env:       env,
		registry:  registry,
		connected: make(map[string]bool),
	}
}

// Post marshals req, invokes service's path endpoint, and unmarshals the
// response into resp (which may be nil to discard). This is the one place
// the body format is decided: a binary client (EnableBinary) frames every
// request, any other client frames none, and the server answers in the
// format it was asked in.
func (c *Client) Post(ctx context.Context, service, path string, req, resp codec.Message) error {
	// A cancelled or expired context is a client-side timeout, not a
	// server failure: surface it as 504/TIMEOUT so callers and the retry
	// layer can tell it apart from a 500 SYSTEM_FAILURE.
	if cerr := ctx.Err(); cerr != nil {
		return Problem(504, "Gateway Timeout", CauseTimeout, "%s -> %s%s: %v", c.from, service, path, cerr)
	}

	srv, ok := c.registry.Lookup(service)
	if !ok {
		return Problem(503, "Service Unavailable", CauseUnreachable, "%s cannot reach %s", c.from, service)
	}

	m := c.env.Model
	// First contact pays the mutual TLS handshake on both sides.
	c.mu.Lock()
	fresh := !c.connected[service]
	c.connected[service] = true
	binary := c.binary
	c.mu.Unlock()
	if fresh {
		c.env.Charge(ctx, m.TLSHandshakeClient+m.TLSHandshakeServer)
	}

	var body []byte
	var err error
	if binary {
		body, err = MarshalBinary(req)
	} else {
		body, err = MarshalBody(req)
	}
	if err != nil {
		return fmt.Errorf("sbi: marshal request to %s%s: %w", service, path, err)
	}

	// Client-side request processing and the bridge round trip.
	c.env.Charge(ctx, m.HTTPCost(len(body))+m.TLSRecordCost(len(body)))
	c.env.Charge(ctx, c.env.JitterFor(ctx).Scale(m.LoopbackRTT, 0.15))
	out, err := srv.serve(ctx, path, body)
	// The handler has returned: the request body is spent either way.
	ReleaseBody(body)
	// Every response from a metered peer carries its OCI (the modelled
	// `3gpp-Sbi-Oci` header); record the freshest snapshot for the
	// resilience layer's proportional throttling.
	if oci, ok := srv.CurrentOCI(); ok {
		c.oci.record(srv.Name(), oci)
	}
	if err != nil {
		var pd *ProblemDetails
		if errors.As(err, &pd) {
			return pd
		}
		return Problem(500, "Internal Server Error", CauseSystem, "%s%s: %v", service, path, err)
	}

	// Client-side response processing.
	c.env.Charge(ctx, m.HTTPCost(len(out))+m.TLSRecordCost(len(out)))

	if resp == nil {
		ReleaseBody(out)
		return nil
	}
	uerr := decodeBody(out, resp)
	ReleaseBody(out)
	if uerr != nil {
		return fmt.Errorf("sbi: unmarshal response from %s%s: %w", service, path, uerr)
	}
	return nil
}

// PeerOCI implements OCISource: the freshest overload advert observed
// from the named peer service.
func (c *Client) PeerOCI(service string) (OCI, bool) { return c.oci.PeerOCI(service) }
