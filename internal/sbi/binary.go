package sbi

// Binary SBI bodies and the one declaration of an SBI operation. Each
// operation is an Endpoint[Req, Resp], declared once in the package that
// serves it: Serve registers its typed handler, Post calls it and reads
// the answer, Send calls it without reading one.
//
// Every message has a field description, and an Endpoint refuses at
// registration a pair without one. The wire format of an in-process body
// is decided in one place, Client.Post: a client opted in through
// EnableBinary frames every request (internal/sbi/codec's length-prefixed
// frames), any other client frames none. Servers hold no format state:
// every endpoint decodes whichever format arrives and answers in kind
// (Answer). The real HTTP transport stays on JSON; ServeHTTP turns a frame
// away with 415.
//
// Frames ride the exact MarshalBody/ReleaseBody single-owner contract the
// JSON bodies use, and both formats are written and read from the
// message's one field description. See internal/sbi/codec for the
// ownership rules.

import (
	"context"
	"fmt"
	"sync"

	"shield5g/internal/sbi/codec"
	"shield5g/internal/simclock"
)

// HandleDual registers h, which must accept both body formats, as the
// handler for path, with no request or response type on record. The core
// registers every endpoint through its Endpoint (Serve, Handle), which
// records them; tests and the benchmark module register raw handlers.
func (s *Server) HandleDual(path string, h HandlerFunc) {
	s.mu.Lock()
	s.routes[path] = route{h: h}
	s.mu.Unlock()
}

// route is one registered endpoint: its handler and, when an Endpoint
// registered it, typed nil pointers to its request and response, which
// the route inventory reads (TestSBIInventory).
type route struct {
	h         HandlerFunc
	req, resp any
}

// describe records the request and response types of path's endpoint.
func (s *Server) describe(path string, req, resp any) {
	s.mu.Lock()
	r := s.routes[path]
	r.req, r.resp = req, resp
	s.routes[path] = r
	s.mu.Unlock()
}

// EnableBinary opts the client into binary frames (see Client.Post for
// the rule). Off by default: the wire format only changes when the
// deployment asks for it.
func (c *Client) EnableBinary() {
	c.mu.Lock()
	c.binary = true
	c.mu.Unlock()
}

// MarshalBinary encodes m as one binary frame in a pooled body buffer.
// The returned slice follows the MarshalBody ownership contract.
func MarshalBinary(m codec.Message) ([]byte, error) {
	buf := codec.AppendBinary(codec.AppendHeader(getBuf()), m)
	out, err := codec.FinishFrame(buf)
	if err != nil {
		ReleaseBody(buf)
		return nil, err
	}
	if auditPool {
		auditOwn(out)
	}
	return out, nil
}

// decodeBody decodes a body in whichever format it arrived into m: a
// binary frame or JSON. Answer uses it on requests, the client on
// responses.
func decodeBody(body []byte, m codec.Message) error {
	if !codec.IsFrame(body) {
		return codec.DecodeJSON(body, m)
	}
	payload, err := codec.Payload(body)
	if err != nil {
		return err
	}
	return codec.DecodeBinary(payload, m)
}

// marshalBodyLike encodes m in the format of the request body it answers:
// a frame when the request was a frame, JSON otherwise.
func marshalBodyLike(reqBody []byte, m codec.Message) ([]byte, error) {
	if codec.IsFrame(reqBody) {
		return MarshalBinary(m)
	}
	return MarshalBody(m)
}

// message is p's field description. Every pair that reaches it was
// checked by mustDescribe when its endpoint was registered.
func message[M any](p *M) codec.Message { return any(p).(codec.Message) }

// mustDescribe refuses, at registration, a handler (what names it) whose
// request or response has no field description.
func mustDescribe[Req, Resp any](what string) {
	for _, p := range []any{(*Req)(nil), (*Resp)(nil)} {
		if _, ok := p.(codec.Message); !ok {
			panic(fmt.Sprintf("sbi: %s: %T has no field description", what, p))
		}
	}
}

// Answer is the one decode-and-answer step of every typed endpoint, an
// NF's (Endpoint.Serve) and a P-AKA module's alike: it decodes body into
// req in whichever format it arrived, runs fn(x, req, resp), and encodes
// the response fn filled in the request's format. An empty body decodes as
// the zero request. An undecodable body is a 400 MANDATORY_IE_INCORRECT,
// and an unencodable answer a 500 SYSTEM_FAILURE.
//
// req and resp are the caller's, and resp is zero on entry: fn fills it
// instead of allocating one. On the binary path the request's
// variable-length byte fields are zero-copy views into the loaned body
// (the HandlerFunc contract), so fn has the pair for the duration of the
// call only and must retain neither.
func Answer[X, Req, Resp any](x X, body []byte, req *Req, resp *Resp, fn func(x X, req *Req, resp *Resp) error) ([]byte, error) {
	if len(body) > 0 {
		if err := decodeBody(body, message(req)); err != nil {
			return nil, Problem(400, "Bad Request", "MANDATORY_IE_INCORRECT", "decode: %v", err)
		}
	}
	if err := fn(x, req, resp); err != nil {
		return nil, err
	}
	out, err := marshalBodyLike(body, message(resp))
	if err != nil {
		return nil, Problem(500, "Internal Server Error", CauseSystem, "encode: %v", err)
	}
	return out, nil
}

// Endpoint is one SBI operation: the path it is served under and the
// request and response it moves. Declare one per operation, in the package
// that serves it; the server registers it with Serve and every caller
// posts through the same variable, so the two sides cannot disagree on
// the pair. Both have a field description: Serve and Handle refuse a pair
// without one.
type Endpoint[Req, Resp any] struct {
	Path string
	pool sync.Pool // of *binCall[Req, Resp], Post's and Send's
}

// Serve registers fn as the endpoint's handler on srv, served by Answer.
// Both structs come from one pool per registration and are scrubbed once
// the response is encoded and before they go back to the pool, so a
// partial decode cannot leak into the next request and no key a response
// carried (K_AUSF, K_SEAF, K_AMF) stays in pooled memory — the scrub rule
// of hashpool.PutHMAC.
//
// A message with a Scrub method keeps the storage its decode or fn
// filled — a list's backing, an optional member's target — cleared up to
// capacity, for the pair's next request; every other message is zeroed.
// Either way the next request's fn sees exactly what its body decodes to
// in a zero pair: an absent or empty list and an absent member are nil.
func (e *Endpoint[Req, Resp]) Serve(srv *Server, fn func(ctx context.Context, req *Req, resp *Resp) error) {
	e.Handle(srv, binHandlerInto(fn))
}

// Handle registers h as the endpoint's handler on srv, for a handler that
// decodes and answers the endpoint's pair itself through Answer: a P-AKA
// module's, which does so inside the enclave crossing. Serve is Handle
// with the plain decode-and-answer handler.
func (e *Endpoint[Req, Resp]) Handle(srv *Server, h HandlerFunc) {
	mustDescribe[Req, Resp]("endpoint " + e.Path)
	srv.HandleDual(e.Path, h)
	srv.describe(e.Path, (*Req)(nil), (*Resp)(nil))
}

// Post copies req into a pooled request/response pair, posts it to
// service's Path through inv and returns the answer by value. The pair is
// zeroed before it goes back to the pool, Serve's scrub rule: answers
// carry K_AUSF, K_SEAF and K_AMF. req is taken by value on purpose: a
// *Req parameter makes the caller's literal escape once a typed method
// that calls Post is inlined into another package.
func (e *Endpoint[Req, Resp]) Post(ctx context.Context, inv Invoker, service string, req Req) (Resp, error) {
	return e.post(ctx, inv, service, req, true)
}

// Send is Post for a call that reads no answer: the request is copied into
// the pooled pair the same way and posted with a nil response.
func (e *Endpoint[Req, Resp]) Send(ctx context.Context, inv Invoker, service string, req Req) error {
	_, err := e.post(ctx, inv, service, req, false)
	return err
}

func (e *Endpoint[Req, Resp]) post(ctx context.Context, inv Invoker, service string, req Req, answer bool) (resp Resp, err error) {
	defer simclock.EnterHop(ctx, simclock.Post, e.Path, 0).Leave()
	c, _ := e.pool.Get().(*binCall[Req, Resp])
	if c == nil {
		c = new(binCall[Req, Resp])
	}
	c.req = req
	var out codec.Message // nil: the answer is not read
	if answer {
		out = message(&c.resp)
	}
	if err = inv.Post(ctx, service, e.Path, message(&c.req), out); err == nil {
		resp = c.resp
	}
	*c = binCall[Req, Resp]{}
	e.pool.Put(c)
	return resp, err
}

// binHandlerInto adapts a typed request/response function into a
// dual-format HandlerFunc served by Answer, with the pooled, scrubbed pair
// Serve describes.
func binHandlerInto[Req, Resp any](fn func(ctx context.Context, req *Req, resp *Resp) error) HandlerFunc {
	pool := sync.Pool{New: func() any { return new(binCall[Req, Resp]) }}
	return func(ctx context.Context, body []byte) ([]byte, error) {
		c := pool.Get().(*binCall[Req, Resp])
		out, err := Answer(ctx, body, &c.req, &c.resp, fn)
		scrub(&c.req)
		scrub(&c.resp)
		pool.Put(c)
		return out, err
	}
}

// binCall is one pooled request and response: a served request's or an
// Endpoint call's.
type binCall[Req, Resp any] struct {
	req  Req
	resp Resp
}

// scrubber is a message that keeps storage in a served pair (a
// codec.Kept): its Scrub zeroes every field, hands what the fields held
// back to its Kept, and leaves the message exactly as a zero one to
// everything that reads it.
type scrubber interface {
	Scrub()
}

// scrub readies one message of a served pair for the next request: a
// scrubber scrubs itself, keeping its storage; anything else is zeroed.
func scrub[M any](m *M) {
	if s, ok := any(m).(scrubber); ok {
		s.Scrub()
		return
	}
	var zero M
	*m = zero
}

// BinHandler adapts a function that returns the response it allocated
// into a dual-format HandlerFunc; the response is copied into the pooled
// one. Like Serve, it refuses a pair without a field description. No
// endpoint of the core uses it: it is kept for the benchmark module's echo
// server.
func BinHandler[Req, Resp any](fn func(ctx context.Context, req *Req) (*Resp, error)) HandlerFunc {
	mustDescribe[Req, Resp]("BinHandler")
	return binHandlerInto(func(ctx context.Context, req *Req, resp *Resp) error {
		r, err := fn(ctx, req)
		if err == nil {
			*resp = *r
		}
		return err
	})
}
