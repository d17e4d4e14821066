package sbi

// Binary SBI bodies. The wire format of an in-process body is a property
// of the message, decided in one place, Client.Post: a client opted in
// through EnableBinary frames a request (internal/sbi/codec's
// length-prefixed frames) iff it has met the peer before, the request has
// a field description and the response is nil or has one too. Servers hold
// no format state: a handler decodes whichever format arrives (DecodeBody)
// and answers in kind (MarshalBodyLike). First contact, messages without a
// description and the real HTTP transport stay on JSON; ServeHTTP turns a
// frame away with 415.
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
// body formats — use BinHandlerInto or BinHandler.
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
//
//shieldlint:hotpath
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

// DecodeBody decodes a body in whichever format it arrived: a binary
// frame through v's field description, anything else as JSON. Handlers
// use it on requests, the client on responses.
//
//shieldlint:hotpath
func DecodeBody(body []byte, v any) error {
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

// MarshalBodyLike encodes v in the format of the request body it answers:
// a frame when the request was a frame (and v has a field description),
// JSON otherwise.
//
//shieldlint:hotpath
func MarshalBodyLike(reqBody []byte, v any) ([]byte, error) {
	if codec.IsFrame(reqBody) {
		if m, ok := v.(codec.Message); ok {
			return MarshalBinary(m)
		}
	}
	return MarshalBody(v)
}

// BinHandlerInto adapts a typed request/response function into a
// dual-format HandlerFunc: the request is decoded from, and the response
// encoded in, whichever format the request arrived in. An empty body
// decodes as the zero request; a frame for a type without a field
// description is a 400 like any other undecodable body.
//
// Both structs come from one per-endpoint pool: fn fills the response it
// is handed, zero on entry, instead of allocating one. On the binary path
// the request's variable-length byte fields are zero-copy views into the
// loaned body (the HandlerFunc contract). fn has the pair for the
// duration of the call only and must retain neither. Both are zeroed once
// the response is encoded and before they go back to the pool, so a
// partial decode cannot leak into the next request and no key a response
// carried (K_AUSF, K_SEAF, K_AMF) stays in pooled memory — the scrub rule
// of hashpool.PutHMAC.
func BinHandlerInto[Req, Resp any](fn func(ctx context.Context, req *Req, resp *Resp) error) HandlerFunc {
	pool := sync.Pool{New: func() any { return new(binCall[Req, Resp]) }}
	//shieldlint:hotpath
	return func(ctx context.Context, body []byte) ([]byte, error) {
		c := pool.Get().(*binCall[Req, Resp])
		out, err := c.serve(ctx, body, fn)
		*c = binCall[Req, Resp]{}
		pool.Put(c)
		return out, err
	}
}

// binCall is one BinHandlerInto request's pooled request and response.
type binCall[Req, Resp any] struct {
	req  Req
	resp Resp
}

//shieldlint:hotpath
func (c *binCall[Req, Resp]) serve(ctx context.Context, body []byte, fn func(ctx context.Context, req *Req, resp *Resp) error) ([]byte, error) {
	if len(body) > 0 {
		if err := DecodeBody(body, &c.req); err != nil {
			return nil, Problem(400, "Bad Request", "MANDATORY_IE_INCORRECT", "decode: %v", err)
		}
	}
	if err := fn(ctx, &c.req, &c.resp); err != nil {
		return nil, err
	}
	out, err := MarshalBodyLike(body, &c.resp)
	if err != nil {
		return nil, Problem(500, "Internal Server Error", CauseSystem, "encode: %v", err)
	}
	return out, nil
}

// BinHandler is BinHandlerInto for a function that returns the response
// it allocated; the response is copied into the pooled one. The cold
// endpoints (NRF, UDR, SMF, UPF) use it.
func BinHandler[Req, Resp any](fn func(ctx context.Context, req *Req) (*Resp, error)) HandlerFunc {
	return BinHandlerInto(func(ctx context.Context, req *Req, resp *Resp) error {
		r, err := fn(ctx, req)
		if err == nil {
			*resp = *r
		}
		return err
	})
}
