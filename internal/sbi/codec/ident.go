package codec

import (
	"bytes"
	"errors"
	"fmt"
)

// ErrIdentity is a SUPI or an auth-context ID whose text its type does not
// accept.
var ErrIdentity = errors.New("codec: malformed identity")

// SUPI is a subscription permanent identifier in IMSI form (TS 23.003
// §2.2A) held in place: up to 16 decimal digits, zero-padded, so it is a
// comparable map key that holds no pointer. Its text — the wire form in
// both formats, see Fields.Ident — is "imsi-" followed by the digits, and
// the zero value's text is "".
type SUPI struct{ digits [16]byte }

// AuthCtxID is the AUSF's opaque auth-context token held in place: up to
// 16 plain bytes (printable ASCII that encoding/json writes unescaped),
// zero-padded. Its text is those bytes; the zero value's is "".
type AuthCtxID struct{ b [16]byte }

// identity is what Fields.Ident describes: a *SUPI or an *AuthCtxID.
type identity interface {
	AppendText(b []byte) ([]byte, error)
	setText(text []byte) error
}

const supiPrefix = "imsi-"

// ParseSUPI parses a SUPI's text, allocating only for the error: "" is
// the zero value, anything else must be "imsi-" followed by 1 to 16
// digits.
func ParseSUPI(s string) (SUPI, error) { return parseSUPI([]byte(s)) }

// parseSUPI is ParseSUPI over bytes. It is not generic, so escape analysis
// sees that text does not outlive the call: a caller's stack buffer stays
// on the stack, and ParseSUPI's conversion needs no heap copy.
func parseSUPI(text []byte) (SUPI, error) {
	var s SUPI
	if len(text) == 0 {
		return s, nil
	}
	n := len(text) - len(supiPrefix)
	if n < 1 || n > len(s.digits) || string(text[:len(supiPrefix)]) != supiPrefix {
		return SUPI{}, fmt.Errorf("%w: SUPI %q", ErrIdentity, string(text))
	}
	for i := range n {
		c := text[len(supiPrefix)+i]
		if c < '0' || c > '9' {
			return SUPI{}, fmt.Errorf("%w: SUPI %q", ErrIdentity, string(text))
		}
		s.digits[i] = c
	}
	return s, nil
}

// AppendText implements encoding.TextAppender.
func (s SUPI) AppendText(b []byte) ([]byte, error) {
	if s == (SUPI{}) {
		return b, nil
	}
	return append(append(b, supiPrefix...), trimZero(s.digits[:])...), nil
}

// MarshalText implements encoding.TextMarshaler: encoding/json writes the
// same string Fields.Ident does.
func (s SUPI) MarshalText() ([]byte, error) { return s.AppendText(nil) }

// UnmarshalText implements encoding.TextUnmarshaler; text ParseSUPI
// rejects leaves the zero value and an ErrIdentity.
func (s *SUPI) UnmarshalText(text []byte) error { return s.setText(text) }

func (s *SUPI) setText(text []byte) (err error) {
	*s, err = parseSUPI(text)
	return err
}

// String formats the text, for logs, errors and the one string a first
// registration keeps.
func (s SUPI) String() string {
	var buf [len(supiPrefix) + 16]byte
	b, _ := s.AppendText(buf[:0])
	return string(b)
}

// Hash spreads SUPIs over shard.Map stripes.
func (s SUPI) Hash() uint64 { return hash16(&s.digits) }

// AppendText implements encoding.TextAppender.
func (id AuthCtxID) AppendText(b []byte) ([]byte, error) {
	return append(b, trimZero(id.b[:])...), nil
}

// MarshalText implements encoding.TextMarshaler.
func (id AuthCtxID) MarshalText() ([]byte, error) { return id.AppendText(nil) }

// UnmarshalText implements encoding.TextUnmarshaler: up to 16 plain
// bytes. Anything else leaves the zero value and an ErrIdentity.
func (id *AuthCtxID) UnmarshalText(text []byte) error { return id.setText(text) }

func (id *AuthCtxID) setText(text []byte) error {
	*id = AuthCtxID{}
	if len(text) > len(id.b) || !plain(text) {
		return fmt.Errorf("%w: auth context ID %q", ErrIdentity, string(text))
	}
	copy(id.b[:], text)
	return nil
}

// String returns the text, for logs and errors.
func (id AuthCtxID) String() string {
	var buf [16]byte
	b, _ := id.AppendText(buf[:0])
	return string(b)
}

// Hash spreads auth-context IDs over shard.Map stripes.
func (id AuthCtxID) Hash() uint64 { return hash16(&id.b) }

// trimZero drops the zero padding.
func trimZero(b []byte) []byte {
	if n := bytes.IndexByte(b, 0); n >= 0 {
		return b[:n]
	}
	return b
}

// hash16 is the 64-bit FNV-1a hash of a 16-byte value.
func hash16(b *[16]byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// Ident describes a SUPI or AuthCtxID field. Either travels as String's
// wire does — its text, "" for the zero value — so a message keeps its
// bytes when one of its strings becomes an identity. A decode checks the
// text and writes the value in place, allocating nothing; text the type
// rejects is a decode error (ErrIdentity in a frame; encoding/json reports
// it through UnmarshalText for a JSON body).
func (f *Fields) Ident(name string, p identity) {
	switch f.mode {
	case binAppend:
		// Either text is at most 21 bytes: its uvarint length is one byte.
		off := len(f.buf)
		f.buf, _ = p.AppendText(append(f.buf, 0))
		f.buf[off] = byte(len(f.buf) - off - 1)
	case binDecode:
		if err := p.setText(f.take(f.uvarint())); err != nil {
			f.fail(err)
		}
	case jsonAppend:
		f.member(name)
		f.buf, _ = p.AppendText(append(f.buf, '"'))
		f.buf = append(f.buf, '"')
	case jsonDecode:
		if f.match(name) {
			if b := f.str(); !f.bad {
				f.bad = p.setText(b) != nil
			}
			f.next(false)
		}
	}
}
