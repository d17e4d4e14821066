package sbi

// Negotiated binary SBI fast path. Endpoints registered through HandleDual
// accept both the JSON bodies the seed transport speaks and the
// length-prefixed binary frames of internal/sbi/codec; a client with the
// binary codec enabled snapshots a peer's binary-capable paths when it
// first connects (the keep-alive "session open") and switches those paths
// to frames from the second request on. First contact, binary-incapable
// peers, and the real HTTP transport all stay on JSON, and a stale
// negotiation — the peer restarted without its binary endpoints — is
// healed by a one-shot downgrade retry when the server answers 415.
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

// HandleDual registers h for path and advertises the path as
// binary-capable. h must accept both body formats — use BinHandler.
func (s *Server) HandleDual(path string, h HandlerFunc) {
	s.mu.Lock()
	s.handlers[path] = h
	s.binPaths[path] = true
	s.mu.Unlock()
}

// binaryPath reports whether path accepts binary frames.
func (s *Server) binaryPath(path string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.binPaths[path]
}

// binaryPaths snapshots the binary-capable paths for client negotiation.
func (s *Server) binaryPaths() map[string]bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.binPaths) == 0 {
		return nil
	}
	out := make(map[string]bool, len(s.binPaths))
	for p := range s.binPaths {
		out[p] = true
	}
	return out
}

// EnableBinary opts the client into binary frame negotiation. Off by
// default: the wire format only changes when the deployment asks for it.
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
	return out, nil
}

// binaryDecodable reports whether resp can receive a binary response (nil
// discards the body, so any format is fine).
func binaryDecodable(resp any) bool {
	if resp == nil {
		return true
	}
	_, ok := resp.(codec.Message)
	return ok
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
// whichever format the request arrived in. Register the result with
// HandleDual so the path is advertised.
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
	_, described := any(new(Req)).(codec.Message)
	//shieldlint:hotpath
	return func(ctx context.Context, body []byte) ([]byte, error) {
		if !described && codec.IsFrame(body) {
			// 415 makes the client downgrade the path to JSON and retry.
			return nil, Problem(415, "Unsupported Media Type", CauseUnsupportedMedia,
				"%T has no field description", new(Req))
		}
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
