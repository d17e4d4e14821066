package sbi

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"shield5g/internal/sbi/codec"
)

// Invoker is what a network function posts through: the in-process
// Client, or a ResilientClient wrapping one.
type Invoker interface {
	// Post invokes service's path endpoint with req, decoding into resp.
	Post(ctx context.Context, service, path string, req, resp any) error
}

// Compile-time transport conformance.
var _ Invoker = (*Client)(nil)

// ServeHTTP exposes the server's endpoints over real HTTP (POST <path>),
// for `core5g -serve`. ProblemDetails errors map onto their HTTP
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
