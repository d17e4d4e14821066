package nas

import (
	"encoding/binary"
	"errors"
	"fmt"

	"shield5g/internal/crypto/suci"
	"shield5g/internal/intern"
)

// Codec errors.
var (
	// ErrTruncated reports a message shorter than its declared fields.
	ErrTruncated = errors.New("nas: truncated message")
	// ErrUnknownMessage reports an unrecognised message type.
	ErrUnknownMessage = errors.New("nas: unknown message type")
	// ErrBadDiscriminator reports a non-5GMM protocol discriminator.
	ErrBadDiscriminator = errors.New("nas: unexpected protocol discriminator")
	// ErrFieldTooLong reports a field longer than its length prefix can
	// express (255 bytes for an LV field, 65535 for an LV-E field).
	ErrFieldTooLong = errors.New("nas: field too long for its length prefix")
)

// Security header types (TS 24.501 §9.3).
const (
	shtPlain     byte = 0x0
	shtProtected byte = 0x2 // integrity protected and ciphered
)

// Encode serialises a plain (unprotected) NAS message into a pooled PDU
// (pdu.go). The caller owns it: handing it to a receiver passes that on,
// and the receiver releases it once decoded, so a steady exchange draws
// the same few arrays and allocates nothing. appendEncode is the variant
// for callers that hold their own buffer.
func Encode(m Message) ([]byte, error) {
	buf := newPDU()
	out, err := appendEncode(buf, m)
	return settle(buf, out), err
}

// appendEncode serialises m onto dst (for callers that own a reusable
// buffer, e.g. the protected-mode encryptor) and returns the extended
// slice. It reads m through one type switch and never calls a method
// through the Message interface, so m does not escape: a message the
// caller builds stays on the caller's stack, and the writer on this one.
func appendEncode(dst []byte, m Message) ([]byte, error) {
	// The header's type byte is filled in once the switch has named it.
	w := writer{buf: append(dst, EPD5GMM, shtPlain, 0)}
	var typ MessageType
	switch v := m.(type) {
	case *RegistrationRequest:
		if err := v.Validate(); err != nil {
			return nil, err
		}
		typ = v.Type()
		w.u8(v.RegistrationType)
		w.u8(v.NgKSI)
		encodeIdentity(&w, &v.Identity)
		w.fits(int(v.Capabilities.Len), MaxSecurityCapabilities)
		w.lv(v.Capabilities.Octets[:min(v.Capabilities.Len, MaxSecurityCapabilities)])
	case *RegistrationReject:
		typ = v.Type()
		w.u8(v.Cause)
	case *RegistrationAccept:
		typ = v.Type()
		encodeGUTI(&w, &v.GUTI)
	case *RegistrationComplete:
		typ = v.Type()
	case *DeregistrationRequest:
		typ = v.Type()
		w.u8(v.NgKSI)
	case *AuthenticationRequest:
		typ = v.Type()
		w.u8(v.NgKSI)
		w.lv(v.ABBA)
		w.raw(v.RAND[:])
		w.raw(v.AUTN[:])
	case *AuthenticationResponse:
		typ = v.Type()
		w.raw(v.ResStar[:])
	case *AuthenticationReject:
		typ = v.Type()
	case *AuthenticationFailure:
		typ = v.Type()
		w.u8(v.Cause)
		w.lv(v.AUTS)
	case *IdentityRequest:
		typ = v.Type()
		w.u8(v.IdentityType)
	case *IdentityResponse:
		if err := v.Validate(); err != nil {
			return nil, err
		}
		typ = v.Type()
		encodeIdentity(&w, &v.Identity)
	case *SecurityModeCommand:
		typ = v.Type()
		w.u8(v.NgKSI)
		w.u8(v.IntegrityAlg)
		w.u8(v.CipheringAlg)
	case *SecurityModeComplete:
		typ = v.Type()
	case *PDUSessionEstablishmentRequest:
		typ = v.Type()
		w.u8(v.SessionID)
		w.str(v.DNN)
	case *PDUSessionEstablishmentAccept:
		typ = v.Type()
		w.u8(v.SessionID)
		w.str(v.UEAddress)
	case nil:
		return nil, errors.New("nas: nil message")
	default:
		// m is not named here: formatting it would make every message
		// escape.
		return nil, fmt.Errorf("%w: not a message type of this package", ErrUnknownMessage)
	}
	if w.err != nil {
		return nil, fmt.Errorf("encode %s: %w", typ, w.err)
	}
	w.buf[len(dst)+2] = byte(typ)
	return w.buf, nil
}

// Inbox is caller-owned storage for one decoded NAS message: one slot per
// message type. DecodeInto and SecurityContext.UnprotectInto select the
// slot of the message they find, zero it, fill it and return it, so a
// receiver that declares its Inbox as a local and reads the result
// through a type switch decodes with the message on its own stack. A
// decoded GUTI and UE security capabilities are values in their slot,
// and an ABBA of the one defined value shares a read-only constant; only
// a SUCI, another ABBA and an AUTS reach the heap. No slot
// points into the Inbox itself (a self-reference would move every Inbox
// to the heap) or into the decoded PDU, so the receiver may release the
// PDU at once. The returned message is valid until the next decode into
// the same Inbox.
type Inbox struct {
	typ MessageType

	registrationRequest   RegistrationRequest
	registrationAccept    RegistrationAccept
	registrationComplete  RegistrationComplete
	registrationReject    RegistrationReject
	deregistrationRequest DeregistrationRequest
	authRequest           AuthenticationRequest
	authResponse          AuthenticationResponse
	authReject            AuthenticationReject
	authFailure           AuthenticationFailure
	identityRequest       IdentityRequest
	identityResponse      IdentityResponse
	smCommand             SecurityModeCommand
	smComplete            SecurityModeComplete
	pduRequest            PDUSessionEstablishmentRequest
	pduAccept             PDUSessionEstablishmentAccept
}

// Type reports the type of the message the last successful decode into
// the Inbox returned (0 when there is none), for a receiver's error text:
// calling Type through the returned Message would move the Inbox to the
// heap.
func (in *Inbox) Type() MessageType { return in.typ }

// Decode parses a plain NAS message into fresh storage. Every field of
// the returned message is copied out of data, so the caller may reuse the
// buffer immediately. Receivers on the registration path use DecodeInto.
func Decode(data []byte) (Message, error) { return DecodeInto(data, new(Inbox)) }

// IsProtected reports whether data carries a security-protected NAS
// message (SHT=2). Receivers should branch on it and route protected
// PDUs straight to SecurityContext.UnprotectInto instead of calling
// DecodeInto and recovering from its error, whose text is built on the
// heap for every protected message.
func IsProtected(data []byte) bool {
	return len(data) >= 2 && data[0] == EPD5GMM && data[1] == shtProtected
}

// DecodeInto parses a plain NAS message into in's slot for its type and
// returns that slot. Every field is copied out of data, so the caller may
// reuse the buffer immediately. On error the message is nil and
// in.Type() is 0.
func DecodeInto(data []byte, in *Inbox) (Message, error) {
	in.typ = 0
	r := reader{buf: data}
	epd := r.u8()
	sht := r.u8()
	typ := MessageType(r.u8())
	if r.err != nil {
		return nil, fmt.Errorf("%w: header", ErrTruncated)
	}
	if epd != EPD5GMM {
		return nil, fmt.Errorf("%w: 0x%02X", ErrBadDiscriminator, epd)
	}
	if sht != shtPlain {
		return nil, fmt.Errorf("nas: message is security protected (SHT=%d); use a security context", sht)
	}
	var m Message
	switch typ {
	case MsgRegistrationRequest:
		v := &in.registrationRequest
		*v = RegistrationRequest{}
		v.RegistrationType = r.u8()
		v.NgKSI = r.u8()
		if err := decodeIdentity(&r, &v.Identity); err != nil {
			return nil, err
		}
		n := r.u8()
		if n > MaxSecurityCapabilities {
			return nil, fmt.Errorf("%w: UE security capability of %d octets, at most %d", ErrFieldTooLong, n, MaxSecurityCapabilities)
		}
		v.Capabilities.Len = n
		copy(v.Capabilities.Octets[:], r.take(int(n)))
		m = v
	case MsgRegistrationReject:
		v := &in.registrationReject
		*v = RegistrationReject{Cause: r.u8()}
		m = v
	case MsgRegistrationAccept:
		v := &in.registrationAccept
		*v = RegistrationAccept{}
		decodeGUTI(&r, &v.GUTI)
		m = v
	case MsgRegistrationComplete:
		m = &in.registrationComplete
	case MsgDeregistrationRequest:
		v := &in.deregistrationRequest
		*v = DeregistrationRequest{NgKSI: r.u8()}
		m = v
	case MsgAuthenticationRequest:
		v := &in.authRequest
		*v = AuthenticationRequest{NgKSI: r.u8(), ABBA: r.abba()}
		copy(v.RAND[:], r.take(16))
		copy(v.AUTN[:], r.take(16))
		m = v
	case MsgAuthenticationResponse:
		v := &in.authResponse
		*v = AuthenticationResponse{}
		copy(v.ResStar[:], r.take(16))
		m = v
	case MsgAuthenticationReject:
		m = &in.authReject
	case MsgAuthenticationFailure:
		v := &in.authFailure
		*v = AuthenticationFailure{Cause: r.u8(), AUTS: r.lv()}
		m = v
	case MsgIdentityRequest:
		v := &in.identityRequest
		*v = IdentityRequest{IdentityType: r.u8()}
		m = v
	case MsgIdentityResponse:
		v := &in.identityResponse
		*v = IdentityResponse{}
		if err := decodeIdentity(&r, &v.Identity); err != nil {
			return nil, err
		}
		m = v
	case MsgSecurityModeCommand:
		v := &in.smCommand
		*v = SecurityModeCommand{NgKSI: r.u8(), IntegrityAlg: r.u8(), CipheringAlg: r.u8()}
		m = v
	case MsgSecurityModeComplete:
		m = &in.smComplete
	case MsgPDUSessionEstRequest:
		v := &in.pduRequest
		*v = PDUSessionEstablishmentRequest{SessionID: r.u8(), DNN: r.str()}
		m = v
	case MsgPDUSessionEstAccept:
		v := &in.pduAccept
		*v = PDUSessionEstablishmentAccept{SessionID: r.u8(), UEAddress: r.str()}
		m = v
	default:
		return nil, fmt.Errorf("%w: 0x%02X", ErrUnknownMessage, byte(typ))
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("nas: %d trailing bytes after %s", len(r.buf)-r.off, typ)
	}
	in.typ = typ
	return m, nil
}

func encodeIdentity(w *writer, id *MobileIdentity) {
	switch id.Kind {
	case IdentityTypeSUCI:
		w.u8(IdentityTypeSUCI)
		s := id.SUCI
		w.str(s.MCC)
		w.str(s.MNC)
		w.str(s.RoutingIndicator)
		w.u8(s.Scheme)
		w.u8(s.HomeKeyID)
		w.lv16(s.SchemeOutput)
	case IdentityTypeGUTI:
		w.u8(IdentityTypeGUTI)
		encodeGUTI(w, &id.GUTI)
	}
}

// decodeIdentity fills id in place. A GUTI is a value inside id, so it
// costs nothing; a SUCI is one allocation, a suciBox holding the
// suci.SUCI and its scheme output.
func decodeIdentity(r *reader, id *MobileIdentity) error {
	switch t := r.u8(); t {
	case IdentityTypeSUCI:
		b := &suciBox{}
		s := &b.suci
		s.MCC = r.internStr()
		s.MNC = r.internStr()
		s.RoutingIndicator = r.internStr()
		s.Scheme = r.u8()
		s.HomeKeyID = r.u8()
		if out := r.take(int(r.u16())); len(out) > 0 {
			// A longer output outgrows the inline array, and append
			// copies it to a backing of its own.
			s.SchemeOutput = append(b.output[:0], out...)
		}
		id.Kind, id.SUCI = t, s
		return r.err
	case IdentityTypeGUTI:
		decodeGUTI(r, &id.GUTI)
		id.Kind = t
		return r.err
	default:
		if r.err != nil {
			return r.err
		}
		return fmt.Errorf("nas: unknown mobile identity type %d", t)
	}
}

// suciBox is a decoded SUCI and the backing of its scheme output, in one
// allocation. A Profile A output (32-byte ephemeral key, MSIN, 8-byte
// tag) is at most 50 bytes, so it fits output.
type suciBox struct {
	suci   suci.SUCI
	output [64]byte
}

func encodeGUTI(w *writer, g *GUTI) {
	w.str(g.MCC)
	w.str(g.MNC)
	w.u8(g.AMFRegionID)
	w.u16(g.AMFSetID)
	w.u8(g.AMFPointer)
	w.u32(g.TMSI)
}

func decodeGUTI(r *reader, g *GUTI) {
	g.MCC = r.internStr()
	g.MNC = r.internStr()
	g.AMFRegionID = r.u8()
	g.AMFSetID = r.u16()
	g.AMFPointer = r.u8()
	g.TMSI = r.u32()
}

// --- byte-level helpers ---

// writer appends a message's fields to buf. A length-prefixed field its
// prefix cannot express sets err (the first one wins) and Encode returns
// that error instead of the bytes.
type writer struct {
	buf []byte
	err error
}

func (w *writer) u8(b byte)     { w.buf = append(w.buf, b) }
func (w *writer) u16(v uint16)  { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32)  { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) raw(b []byte)  { w.buf = append(w.buf, b...) }
func (w *writer) lv(b []byte)   { w.fits(len(b), 0xFF); w.u8(byte(len(b))); w.raw(b) }
func (w *writer) lv16(b []byte) { w.fits(len(b), 0xFFFF); w.u16(uint16(len(b))); w.raw(b) }
func (w *writer) str(s string)  { w.lv([]byte(s)) }

func (w *writer) fits(n, limit int) {
	if n > limit && w.err == nil {
		w.err = fmt.Errorf("%w: %d bytes, at most %d", ErrFieldTooLong, n, limit)
	}
}

type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, r.off, len(r.buf))
		return nil
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) lv() []byte {
	n := int(r.u8())
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// abba0 is the one ABBA value TS 33.501 §A.7.1 defines, 0x0000. A decoded
// ABBA of that value shares it, the way internStr shares PLMN strings, so
// it is read only; its capacity is its length, so an append copies.
var abba0 = []byte{0x00, 0x00}

// abba decodes an LV ABBA field: abba0 when it holds that value, a copy
// otherwise.
func (r *reader) abba() []byte {
	b := r.take(int(r.u8()))
	if string(b) == string(abba0) {
		return abba0
	}
	return append([]byte(nil), b...)
}

// str decodes a length-prefixed string in one copy (take aliases the
// input; the string conversion is the copy that detaches it).
func (r *reader) str() string {
	n := int(r.u8())
	return string(r.take(n))
}

// internStr decodes a length-prefixed string through the bounded intern
// table — for protocol constants only (PLMN digits, routing
// indicators), never per-subscriber values like SUPIs.
func (r *reader) internStr() string {
	n := int(r.u8())
	return intern.Bytes(r.take(n))
}
