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
// body formats — use BinHandler.
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

// BinHandler adapts a typed request/response function into a dual-format
// HandlerFunc: the request is decoded from, and the response encoded in,
// whichever format the request arrived in. An empty body decodes as the
// zero request; a frame for a type without a field description is a 400
// like any other undecodable body.
//
// The request struct is pooled, and on the binary path its byte fields
// are zero-copy views into the loaned body (the HandlerFunc contract): fn
// gets the struct for the duration of the call only, must copy anything
// it retains, and must not return the request as its response — the
// struct is zeroed and recycled as soon as fn returns.
func BinHandler[Req, Resp any](fn func(ctx context.Context, req *Req) (*Resp, error)) HandlerFunc {
	// Entries are zeroed before going back so a partial decode from one
	// request can never leak into the next.
	reqPool := sync.Pool{New: func() any { return new(Req) }}
	putReq := func(req *Req) {
		var zero Req
		*req = zero
		reqPool.Put(req)
	}
	//shieldlint:hotpath
	return func(ctx context.Context, body []byte) ([]byte, error) {
		req := reqPool.Get().(*Req)
		if len(body) > 0 {
			if err := DecodeBody(body, req); err != nil {
				putReq(req)
				return nil, Problem(400, "Bad Request", "MANDATORY_IE_INCORRECT", "decode: %v", err)
			}
		}
		resp, err := fn(ctx, req)
		putReq(req)
		if err != nil {
			return nil, err
		}
		out, err := MarshalBodyLike(body, resp)
		if err != nil {
			return nil, Problem(500, "Internal Server Error", CauseSystem, "encode: %v", err)
		}
		return out, nil
	}
}
