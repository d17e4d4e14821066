package codec

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
)

// Bytes16 is a 16-byte AKA value held in place: RAND, AUTN, XRES*,
// HXRES*. On the wire it is a byte string of exactly 16 bytes (see
// Fields.Fixed).
type Bytes16 [16]byte

// Bytes32 is a 32-byte AKA key held in place: K_AUSF, K_SEAF, K_AMF. On
// the wire it is a byte string of exactly 32 bytes (see Fields.Fixed).
type Bytes32 [32]byte

// MarshalJSON implements json.Marshaler: padded base64, or null for the
// zero value.
func (b Bytes16) MarshalJSON() ([]byte, error) { return marshalFixed(b[:]) }

// UnmarshalJSON implements json.Unmarshaler: null is the zero value, a
// byte string must hold exactly 16 bytes.
func (b *Bytes16) UnmarshalJSON(data []byte) error { return unmarshalFixed(data, b[:]) }

// MarshalJSON implements json.Marshaler: padded base64, or null for the
// zero value.
func (b Bytes32) MarshalJSON() ([]byte, error) { return marshalFixed(b[:]) }

// UnmarshalJSON implements json.Unmarshaler: null is the zero value, a
// byte string must hold exactly 32 bytes.
func (b *Bytes32) UnmarshalJSON(data []byte) error { return unmarshalFixed(data, b[:]) }

// marshalFixed is encoding/json's reference encoding of a fixed-width
// value: the zero value as a nil byte string, any other as a []byte.
func marshalFixed(p []byte) ([]byte, error) {
	if isZero(p) {
		return []byte("null"), nil
	}
	return json.Marshal(p)
}

// unmarshalFixed decodes data as encoding/json decodes a []byte, then
// holds the result to len(p).
func unmarshalFixed(data, p []byte) error {
	var b []byte
	if err := json.Unmarshal(data, &b); err != nil {
		return err
	}
	if b == nil {
		clear(p)
		return nil
	}
	if len(b) != len(p) {
		return fmt.Errorf("%w: %d byte(s), want %d", ErrFieldLength, len(b), len(p))
	}
	copy(p, b)
	return nil
}

func isZero(p []byte) bool {
	for _, c := range p {
		if c != 0 {
			return false
		}
	}
	return true
}

// Fixed describes a fixed-width byte field; p is its array's slice
// (Bytes16 or Bytes32). The wire is Bytes': the zero value travels as a
// nil byte string (null in JSON, a uvarint 0 in a frame) and any other as
// a byte string of exactly len(p) bytes. A decode writes into p in place,
// so there is no view to own and no backing to allocate; a byte string of
// any other length is a decode error (ErrFieldLength in a frame;
// encoding/json reports it for a JSON body).
func (f *Fields) Fixed(name string, p []byte) {
	switch f.mode {
	case binAppend:
		if isZero(p) {
			f.buf = append(f.buf, 0)
			return
		}
		f.buf = append(binary.AppendUvarint(f.buf, uint64(len(p))+1), p...)
	case binDecode:
		n := f.uvarint()
		if n > 0 {
			if b := f.take(n - 1); f.err == nil && len(b) != len(p) {
				f.fail(fmt.Errorf("%w: %d byte(s), want %d", ErrFieldLength, len(b), len(p)))
			} else {
				copy(p, b)
			}
		}
		if n == 0 || f.err != nil {
			clear(p)
		}
	case jsonAppend:
		f.member(name)
		if isZero(p) {
			f.buf = append(f.buf, "null"...)
			return
		}
		f.buf = append(base64.StdEncoding.AppendEncode(append(f.buf, '"'), p), '"')
	case jsonDecode:
		if !f.match(name) {
			return
		}
		if f.null() {
			clear(p)
		} else if b := f.quoted(); !f.bad {
			// Decoded in the scratch tail, which is cleared again: the
			// value may be a key.
			off := len(f.scratch)
			tmp := f.scratch[off : off+base64.StdEncoding.DecodedLen(len(b))]
			n, err := base64.StdEncoding.Decode(tmp, b)
			f.bad = err != nil || n != len(p) || base64.StdEncoding.EncodedLen(n) != len(b)
			if !f.bad {
				copy(p, tmp[:n])
			}
			clear(tmp)
		}
		f.next(false)
	}
}
