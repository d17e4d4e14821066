package sbi

// Binary SBI bodies. The wire format of an in-process body is a property
// of the message, decided in one place, Client.Post: a client opted in
// through EnableBinary frames a request (internal/sbi/codec's
// length-prefixed frames) iff the request has a field description and the
// response is nil or has one too. Servers hold no format state: every
// typed endpoint decodes whichever format arrives and answers in kind
// (Answer). Messages without a description and the real HTTP transport
// stay on JSON; ServeHTTP turns a frame away with 415.
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
)

// HandleDual registers the endpoint handler for path. h must accept both
// body formats — use BinHandlerInto.
func (s *Server) HandleDual(path string, h HandlerFunc) {
	s.mu.Lock()
	s.handlers[path] = h
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

// decodeBody decodes a body in whichever format it arrived: a binary
// frame through v's field description, anything else as JSON. Answer
// uses it on requests, the client on responses.
func decodeBody(body []byte, v any) error {
	if !codec.IsFrame(body) {
		return UnmarshalBody(body, v)
	}
	m, ok := v.(codec.Message)
	if !ok {
		return fmt.Errorf("binary frame into %T, which has no field description", v)
	}
	payload, err := codec.Payload(body)
	if err != nil {
		return err
	}
	return codec.DecodeBinary(payload, m)
}

// marshalBodyLike encodes v in the format of the request body it answers:
// a frame when the request was a frame (and v has a field description),
// JSON otherwise.
func marshalBodyLike(reqBody []byte, v any) ([]byte, error) {
	if codec.IsFrame(reqBody) {
		if m, ok := v.(codec.Message); ok {
			return MarshalBinary(m)
		}
	}
	return MarshalBody(v)
}

// Answer is the one decode-and-answer step of every typed endpoint, an
// NF's (BinHandlerInto) and a P-AKA module's alike: it decodes body into
// req in whichever format it arrived, runs fn(x, req, resp), and encodes
// the response fn filled in the request's format. An empty body decodes as
// the zero request. An undecodable body — a frame for a type without a
// field description included — is a 400 MANDATORY_IE_INCORRECT, and an
// unencodable answer a 500 SYSTEM_FAILURE.
//
// req and resp are the caller's, and resp is zero on entry: fn fills it
// instead of allocating one. On the binary path the request's
// variable-length byte fields are zero-copy views into the loaned body
// (the HandlerFunc contract), so fn has the pair for the duration of the
// call only and must retain neither.
func Answer[X, Req, Resp any](x X, body []byte, req *Req, resp *Resp, fn func(x X, req *Req, resp *Resp) error) ([]byte, error) {
	if len(body) > 0 {
		if err := decodeBody(body, req); err != nil {
			return nil, Problem(400, "Bad Request", "MANDATORY_IE_INCORRECT", "decode: %v", err)
		}
	}
	if err := fn(x, req, resp); err != nil {
		return nil, err
	}
	out, err := marshalBodyLike(body, resp)
	if err != nil {
		return nil, Problem(500, "Internal Server Error", CauseSystem, "encode: %v", err)
	}
	return out, nil
}

// BinHandlerInto adapts a typed request/response function into a
// dual-format HandlerFunc served by Answer. Both structs come from one
// per-endpoint pool and are zeroed once the response is encoded and
// before they go back to the pool, so a partial decode cannot leak into
// the next request and no key a response carried (K_AUSF, K_SEAF, K_AMF)
// stays in pooled memory — the scrub rule of hashpool.PutHMAC.
func BinHandlerInto[Req, Resp any](fn func(ctx context.Context, req *Req, resp *Resp) error) HandlerFunc {
	pool := sync.Pool{New: func() any { return new(binCall[Req, Resp]) }}
	return func(ctx context.Context, body []byte) ([]byte, error) {
		c := pool.Get().(*binCall[Req, Resp])
		out, err := Answer(ctx, body, &c.req, &c.resp, fn)
		*c = binCall[Req, Resp]{}
		pool.Put(c)
		return out, err
	}
}

// binCall is one pooled request and response: a BinHandlerInto request's
// or a Stub call's.
type binCall[Req, Resp any] struct {
	req  Req
	resp Resp
}

// Stub is the one way to call an endpoint whose answer is read, the
// client-side twin of BinHandlerInto: declare one per endpoint and post
// through it. A call that reads no answer posts through the Invoker with a
// nil response instead, which keeps Client.Post's framing rule.
type Stub[Req, Resp any] struct {
	Path string
	pool sync.Pool
}

// Post copies req into a pooled request/response pair, posts it to
// service's Path through inv and returns the answer by value. The pair is
// zeroed before it goes back to the pool, the scrub rule of
// BinHandlerInto: answers carry K_AUSF, K_SEAF and K_AMF. req is taken by
// value on purpose: a *Req parameter makes the caller's literal escape
// once a typed method that calls Post is inlined into another package.
func (s *Stub[Req, Resp]) Post(ctx context.Context, inv Invoker, service string, req Req) (resp Resp, err error) {
	c, _ := s.pool.Get().(*binCall[Req, Resp])
	if c == nil {
		c = new(binCall[Req, Resp])
	}
	c.req = req
	if err = inv.Post(ctx, service, s.Path, &c.req, &c.resp); err == nil {
		resp = c.resp
	}
	*c = binCall[Req, Resp]{}
	s.pool.Put(c)
	return resp, err
}

// BinHandler is BinHandlerInto for a function that returns the response
// it allocated; the response is copied into the pooled one. No endpoint
// of the core uses it: it is kept for the benchmark module's echo server.
func BinHandler[Req, Resp any](fn func(ctx context.Context, req *Req) (*Resp, error)) HandlerFunc {
	return BinHandlerInto(func(ctx context.Context, req *Req, resp *Resp) error {
		r, err := fn(ctx, req)
		if err == nil {
			*resp = *r
		}
		return err
	})
}
