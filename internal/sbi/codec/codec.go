// Package codec holds the SBI body codec. Every SBI message describes its
// fields once (Message, Fields) and this package drives both wire formats
// from that description:
//
//   - JSON, the paper's REST format and the HTTP edge's: AppendJSON and
//     DecodeJSON reproduce encoding/json byte for byte and value for value
//     without reflection, and hand the whole body to encoding/json when it
//     leaves their grammar (an escaped string, malformed input).
//   - the binary framing a binary-enabled in-process client sends (see
//     sbi.Client.Post, the one place the format is decided): AppendBinary
//     and DecodeBinary.
//
// A frame is
//
//	magic (1 byte, 0xB5) || payload length (4 bytes, big endian) || payload
//
// and the payload is the description's field sequence: uvarint-length-
// prefixed byte strings and strings, single bytes, uvarints, a 0 or 1
// byte per bool, big-endian fixed-width unsigned integers, a presence
// byte before an optional struct and a count before a list. The magic
// byte cannot begin a JSON body ('{', '[', '"', digits, ...), so a server
// can tell the two formats apart from the first byte of the request.
//
// Ownership rules mirror the sbi.MarshalBody/ReleaseBody contract:
//
//   - Encoding appends into a caller-owned buffer (the pooled body buffer
//     on the transport paths) — no intermediate copies.
//   - A byte string decoded from a frame is a view INTO the payload unless
//     its description marks it Own. A server handler decoding a request
//     holds views only for the duration of the call (the HandlerFunc loan
//     contract); anything it retains it must copy.
//   - Owned byte strings — the Own ones of a frame, every one of a JSON
//     body — are rewritten into one fresh backing array per message
//     (Compact), so releasing the body back to its pool cannot alias live
//     data. Response types mark what the client keeps Own.
//   - Own and Compact are for variable-length fields only (UDR records,
//     SQN lists, SQN_MS, a SUCI's scheme output). A fixed-width AKA value
//     — RAND, AUTN, XRES*, HXRES*, K_AUSF, K_SEAF, K_AMF — is a Bytes16
//     or Bytes32 held in the message itself and described with Fixed: a
//     decode copies it in place in either format, so it is never a view
//     and never needs a backing of its own.
//   - Identities are values the same way: a SUPI or an auth-context ID
//     is a SUPI or AuthCtxID held in 16 bytes, described with Ident, and
//     travels as the string it replaced. Other strings are copies.
//   - A message a server's pooled pair serves may keep the storage of a
//     list or an optional member between bodies (Kept, KeptList,
//     KeptPtr): a decode draws on it and never adopts a fresh backing
//     into it, so everywhere else a decode allocates as it would without
//     it.
package codec

import (
	"encoding/binary"
	"errors"
)

// Magic is the first byte of every binary SBI frame. JSON bodies start
// with '{', '[', '"', a digit, 't', 'f' or 'n', never 0xB5.
const Magic = 0xB5

// headerLen is the frame header size: magic plus 4-byte payload length.
const headerLen = 5

// MaxPayload bounds a frame's payload, matching the 1 MiB body limit the
// HTTP transport enforces (sbi.ServeHTTP's MaxBytesReader).
const MaxPayload = 1 << 20

// Frame parse errors.
var (
	ErrNotFrame  = errors.New("codec: not a binary SBI frame")
	ErrTruncated = errors.New("codec: truncated frame")
	ErrOversized = errors.New("codec: frame length exceeds MaxPayload")
	ErrTrailing  = errors.New("codec: trailing bytes after frame payload")
	// ErrFieldLength is a fixed-width field (Fixed) whose byte string is
	// not its width.
	ErrFieldLength = errors.New("codec: fixed-width field of the wrong length")
	// ErrBool is a Bool field whose byte is neither 0 nor 1.
	ErrBool = errors.New("codec: boolean byte neither 0 nor 1")
)

// IsFrame reports whether b begins with a plausible binary frame header.
func IsFrame(b []byte) bool {
	return len(b) >= headerLen && b[0] == Magic
}

// AppendHeader appends the frame magic and a length placeholder; encode
// the payload after it and call FinishFrame on the full slice.
func AppendHeader(dst []byte) []byte {
	return append(dst, Magic, 0, 0, 0, 0)
}

// FinishFrame patches the payload length into a frame started with
// AppendHeader. b must be the whole frame (header plus payload).
func FinishFrame(b []byte) ([]byte, error) {
	if len(b) < headerLen || b[0] != Magic {
		return nil, ErrNotFrame
	}
	n := len(b) - headerLen
	if n > MaxPayload {
		return nil, ErrOversized
	}
	binary.BigEndian.PutUint32(b[1:headerLen], uint32(n))
	return b, nil
}

// Payload validates b's frame header and returns the payload as a view
// into b (zero-copy). The declared length must match the bytes present
// exactly: a short body is ErrTruncated, extra bytes are ErrTrailing.
func Payload(b []byte) ([]byte, error) {
	if len(b) < headerLen || b[0] != Magic {
		return nil, ErrNotFrame
	}
	n := binary.BigEndian.Uint32(b[1:headerLen])
	if n > MaxPayload {
		return nil, ErrOversized
	}
	rest := b[headerLen:]
	switch {
	case uint32(len(rest)) < n:
		return nil, ErrTruncated
	case uint32(len(rest)) > n:
		return nil, ErrTrailing
	}
	return rest, nil
}

// emptyBytes backs zero-length decoded fields so even they stop aliasing
// the transport buffer after Compact.
var emptyBytes = []byte{}

// Compact rewrites the given decoded fields into one freshly allocated
// backing array, giving the caller exclusive ownership of every byte it
// retains — the step that makes releasing the response body safe. One
// allocation covers the whole message, the same single-backing pattern
// paka.GenerateAV uses for its response struct.
func Compact(fields ...*[]byte) {
	var total int
	for _, f := range fields {
		total += len(*f)
	}
	if total == 0 {
		for _, f := range fields {
			if *f != nil {
				*f = emptyBytes
			}
		}
		return
	}
	// One caller-owned backing for the whole message.
	buf := make([]byte, 0, total)
	for _, f := range fields {
		if *f == nil {
			continue
		}
		if len(*f) == 0 {
			*f = emptyBytes
			continue
		}
		off := len(buf)
		buf = append(buf, *f...)
		*f = buf[off:len(buf):len(buf)]
	}
}
