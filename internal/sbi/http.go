package sbi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"shield5g/internal/sbi/codec"
)

// Invoker abstracts the transport so network functions work identically
// over the in-process modelled transport and real HTTP.
type Invoker interface {
	// Post invokes service's path endpoint with req, decoding into resp.
	Post(ctx context.Context, service, path string, req, resp any) error
}

// Compile-time transport conformance.
var (
	_ Invoker = (*Client)(nil)
	_ Invoker = (*HTTPClient)(nil)
)

// ServeHTTP exposes the server's endpoints over real HTTP (POST <path>),
// for the runnable binaries. ProblemDetails errors map onto their HTTP
// status with an application/problem+json body. This edge speaks JSON
// only: a binary frame is turned away before dispatch.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeProblem(w, Problem(405, "Method Not Allowed", "INVALID_METHOD", "use POST"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeProblem(w, Problem(400, "Bad Request", "PAYLOAD_TOO_LARGE", "read body: %v", err))
		return
	}
	if codec.IsFrame(body) {
		writeProblem(w, Problem(415, "Unsupported Media Type", CauseUnsupportedMedia,
			"%s%s speaks JSON over HTTP, not binary SBI frames", s.name, r.URL.Path))
		return
	}
	out, err := s.serve(r.Context(), r.URL.Path, body)
	if err != nil {
		var pd *ProblemDetails
		if !errors.As(err, &pd) {
			pd = Problem(500, "Internal Server Error", "SYSTEM_FAILURE", "%v", err)
		}
		s.setOCIHeader(w.Header())
		writeProblem(w, pd)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.setOCIHeader(w.Header())
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out)
	// Handler-returned bodies are transport-owned (HandlerFunc contract).
	ReleaseBody(out)
}

// OCIHeader is the TS 29.500 §6.4 overload-control header name carrying the
// server's current OverloadControlInformation on every HTTP response.
const OCIHeader = "3gpp-Sbi-Oci"

// setOCIHeader attaches the server's current overload advert, when the load
// meter is armed, as a JSON-encoded 3gpp-Sbi-Oci header.
func (s *Server) setOCIHeader(h http.Header) {
	oci, ok := s.CurrentOCI()
	if !ok {
		return
	}
	if b, err := json.Marshal(oci); err == nil {
		h.Set(OCIHeader, string(b))
	}
}

func writeProblem(w http.ResponseWriter, pd *ProblemDetails) {
	w.Header().Set("Content-Type", "application/problem+json")
	w.WriteHeader(pd.Status)
	_ = json.NewEncoder(w).Encode(pd)
}

// HTTPClient is the real-network counterpart of Client: it resolves
// service names to base URLs and posts JSON over net/http.
type HTTPClient struct {
	client *http.Client

	mu    sync.RWMutex
	bases map[string]string

	oci ociTable
}

// PeerOCI reports the freshest overload advert received from service, parsed
// from 3gpp-Sbi-Oci response headers. It implements OCISource so HTTP-backed
// deployments feed the same client-side throttle as the in-process transport.
func (c *HTTPClient) PeerOCI(service string) (OCI, bool) {
	return c.oci.PeerOCI(service)
}

// recordOCIHeader parses a 3gpp-Sbi-Oci response header, if present, into the
// client's per-peer table.
func (c *HTTPClient) recordOCIHeader(service string, h http.Header) {
	raw := h.Get(OCIHeader)
	if raw == "" {
		return
	}
	var oci OCI
	if json.Unmarshal([]byte(raw), &oci) == nil {
		c.oci.record(service, oci)
	}
}

// NewHTTPClient creates an HTTP transport. A nil client selects
// http.DefaultClient.
func NewHTTPClient(client *http.Client) *HTTPClient {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPClient{client: client, bases: make(map[string]string)}
}

// SetBase maps a service name to its base URL (e.g. "http://udm:8080").
func (c *HTTPClient) SetBase(service, baseURL string) {
	c.mu.Lock()
	c.bases[service] = baseURL
	c.mu.Unlock()
}

// Post implements Invoker over HTTP.
func (c *HTTPClient) Post(ctx context.Context, service, path string, req, resp any) error {
	c.mu.RLock()
	base, ok := c.bases[service]
	c.mu.RUnlock()
	if !ok {
		return Problem(503, "Service Unavailable", "TARGET_NF_NOT_REACHABLE", "no base URL for %s", service)
	}
	// The request is encoded outside the body pool (the same bytes
	// MarshalBody writes): net/http can deliver a response while its write
	// goroutine is still draining the reader, so there is no point at which
	// this function could release it.
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("sbi: marshal request to %s%s: %w", service, path, err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("sbi: build request: %w", err)
	}
	httpReq.Header.Set("Content-Type", "application/json")

	httpResp, err := c.client.Do(httpReq)
	if err != nil {
		return fmt.Errorf("sbi: %s%s: %w", service, path, err)
	}
	defer func() { _ = httpResp.Body.Close() }()
	c.recordOCIHeader(service, httpResp.Header)

	out, err := io.ReadAll(io.LimitReader(httpResp.Body, 1<<20))
	if err != nil {
		return fmt.Errorf("sbi: read response from %s%s: %w", service, path, err)
	}
	if httpResp.StatusCode != http.StatusOK {
		var pd ProblemDetails
		if json.Unmarshal(out, &pd) == nil && pd.Status != 0 {
			return &pd
		}
		return Problem(httpResp.StatusCode, httpResp.Status, "SYSTEM_FAILURE", "%s", out)
	}
	if resp == nil {
		ReleaseBody(out)
		return nil
	}
	uerr := UnmarshalBody(out, resp)
	ReleaseBody(out)
	if uerr != nil {
		return fmt.Errorf("sbi: unmarshal response from %s%s: %w", service, path, uerr)
	}
	return nil
}
