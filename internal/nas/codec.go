package nas

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

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

// Codec scratch pools. The writer and reader structs escape through the
// interface calls into the per-message codecs, so without pooling every
// Encode/Decode heap-allocates its state; per-UE NAS signalling is the
// registration hot path, so that state is recycled instead.
var (
	writerPool = sync.Pool{New: func() any { return new(writer) }}
	readerPool = sync.Pool{New: func() any { return new(reader) }}
)

// encodeCap pre-sizes Encode's single output allocation; the largest plain
// message (a RegistrationRequest carrying an ECIES SUCI) is ~70 bytes, so
// the append chain never regrows the buffer.
const encodeCap = 96

// Encode serialises a plain (unprotected) NAS message.
//
//shieldlint:hotpath
func Encode(m Message) ([]byte, error) {
	//shieldlint:ignore hotalloc the encoded buffer escapes into the NAS transport (AMF downlink, UE uplink) with no release point, so the allocation is the ownership-transfer contract; appendEncode is the reuse variant for callers that hold their own buffer
	return appendEncode(make([]byte, 0, encodeCap), m)
}

// appendEncode serialises m onto dst (for callers that own a reusable
// buffer, e.g. the protected-mode encryptor) and returns the extended
// slice. The encoding itself is allocation-free.
//
//shieldlint:hotpath
func appendEncode(dst []byte, m Message) ([]byte, error) {
	if m == nil {
		return nil, errors.New("nas: nil message")
	}
	if v, ok := m.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return nil, err
		}
	}
	w := writerPool.Get().(*writer)
	w.buf = dst
	w.u8(EPD5GMM)
	w.u8(shtPlain)
	w.u8(byte(m.Type()))
	m.encodeBody(w)
	out, err := w.buf, w.err
	*w = writer{}
	writerPool.Put(w)
	if err != nil {
		return nil, fmt.Errorf("encode %s: %w", m.Type(), err)
	}
	return out, nil
}

// Decode parses a plain NAS message. Every field of the returned message
// is copied out of data, so the caller may reuse the buffer immediately.
//
//shieldlint:hotpath
func Decode(data []byte) (Message, error) {
	r := readerPool.Get().(*reader)
	*r = reader{buf: data}
	m, err := decodeMessage(r)
	*r = reader{}
	readerPool.Put(r)
	return m, err
}

// IsProtected reports whether data carries a security-protected NAS
// message (SHT=2). Receivers should branch on it and route protected
// PDUs straight to SecurityContext.Unprotect instead of calling Decode
// and recovering from its error, which costs two allocations per
// protected message on the hot path.
//
//shieldlint:hotpath
func IsProtected(data []byte) bool {
	return len(data) >= 2 && data[0] == EPD5GMM && data[1] == shtProtected
}

func decodeMessage(r *reader) (Message, error) {
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
	m, err := newMessage(typ)
	if err != nil {
		return nil, err
	}
	if err := m.decodeBody(r); err != nil {
		return nil, err
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("nas: %d trailing bytes after %s", len(r.buf)-r.off, typ)
	}
	return m, nil
}

func newMessage(t MessageType) (Message, error) {
	switch t {
	case MsgRegistrationRequest:
		return &RegistrationRequest{}, nil
	case MsgRegistrationAccept:
		return &RegistrationAccept{}, nil
	case MsgRegistrationComplete:
		return &RegistrationComplete{}, nil
	case MsgDeregistrationRequest:
		return &DeregistrationRequest{}, nil
	case MsgAuthenticationRequest:
		return &AuthenticationRequest{}, nil
	case MsgAuthenticationResponse:
		return &AuthenticationResponse{}, nil
	case MsgAuthenticationReject:
		return &AuthenticationReject{}, nil
	case MsgAuthenticationFailure:
		return &AuthenticationFailure{}, nil
	case MsgIdentityRequest:
		return &IdentityRequest{}, nil
	case MsgIdentityResponse:
		return &IdentityResponse{}, nil
	case MsgSecurityModeCommand:
		return &SecurityModeCommand{}, nil
	case MsgSecurityModeComplete:
		return &SecurityModeComplete{}, nil
	case MsgPDUSessionEstRequest:
		return &PDUSessionEstablishmentRequest{}, nil
	case MsgPDUSessionEstAccept:
		return &PDUSessionEstablishmentAccept{}, nil
	default:
		return nil, fmt.Errorf("%w: 0x%02X", ErrUnknownMessage, byte(t))
	}
}

// --- body codecs ---

func (m *RegistrationRequest) encodeBody(w *writer) {
	w.u8(m.RegistrationType)
	w.u8(m.NgKSI)
	encodeIdentity(w, &m.Identity)
	w.lv(m.Capabilities)
}

func (m *RegistrationRequest) decodeBody(r *reader) error {
	m.RegistrationType = r.u8()
	m.NgKSI = r.u8()
	if err := decodeIdentity(r, &m.Identity); err != nil {
		return err
	}
	m.Capabilities = r.lv()
	return r.err
}

// Validate checks the embedded identity.
func (m *RegistrationRequest) Validate() error { return m.Identity.Validate() }

func (m *AuthenticationRequest) encodeBody(w *writer) {
	w.u8(m.NgKSI)
	w.lv(m.ABBA)
	w.raw(m.RAND[:])
	w.raw(m.AUTN[:])
}

func (m *AuthenticationRequest) decodeBody(r *reader) error {
	m.NgKSI = r.u8()
	m.ABBA = r.lv()
	copy(m.RAND[:], r.take(16))
	copy(m.AUTN[:], r.take(16))
	return r.err
}

func (m *AuthenticationResponse) encodeBody(w *writer) { w.raw(m.ResStar[:]) }

func (m *AuthenticationResponse) decodeBody(r *reader) error {
	copy(m.ResStar[:], r.take(16))
	return r.err
}

func (m *AuthenticationFailure) encodeBody(w *writer) {
	w.u8(m.Cause)
	w.lv(m.AUTS)
}

func (m *AuthenticationFailure) decodeBody(r *reader) error {
	m.Cause = r.u8()
	m.AUTS = r.lv()
	return r.err
}

func (*AuthenticationReject) encodeBody(*writer)       {}
func (*AuthenticationReject) decodeBody(*reader) error { return nil }
func (*SecurityModeComplete) encodeBody(*writer)       {}
func (*SecurityModeComplete) decodeBody(*reader) error { return nil }
func (*RegistrationComplete) encodeBody(*writer)       {}
func (*RegistrationComplete) decodeBody(*reader) error { return nil }

func (m *IdentityRequest) encodeBody(w *writer) { w.u8(m.IdentityType) }

func (m *IdentityRequest) decodeBody(r *reader) error {
	m.IdentityType = r.u8()
	return r.err
}

func (m *IdentityResponse) encodeBody(w *writer) { encodeIdentity(w, &m.Identity) }

func (m *IdentityResponse) decodeBody(r *reader) error {
	return decodeIdentity(r, &m.Identity)
}

func (m *SecurityModeCommand) encodeBody(w *writer) {
	w.u8(m.NgKSI)
	w.u8(m.IntegrityAlg)
	w.u8(m.CipheringAlg)
}

func (m *SecurityModeCommand) decodeBody(r *reader) error {
	m.NgKSI = r.u8()
	m.IntegrityAlg = r.u8()
	m.CipheringAlg = r.u8()
	return r.err
}

func (m *RegistrationAccept) encodeBody(w *writer) { encodeGUTI(w, &m.GUTI) }

func (m *RegistrationAccept) decodeBody(r *reader) error { return decodeGUTI(r, &m.GUTI) }

func (m *DeregistrationRequest) encodeBody(w *writer) { w.u8(m.NgKSI) }

func (m *DeregistrationRequest) decodeBody(r *reader) error {
	m.NgKSI = r.u8()
	return r.err
}

func (m *PDUSessionEstablishmentRequest) encodeBody(w *writer) {
	w.u8(m.SessionID)
	w.str(m.DNN)
}

func (m *PDUSessionEstablishmentRequest) decodeBody(r *reader) error {
	m.SessionID = r.u8()
	m.DNN = r.str()
	return r.err
}

func (m *PDUSessionEstablishmentAccept) encodeBody(w *writer) {
	w.u8(m.SessionID)
	w.str(m.UEAddress)
}

func (m *PDUSessionEstablishmentAccept) decodeBody(r *reader) error {
	m.SessionID = r.u8()
	m.UEAddress = r.str()
	return r.err
}

func encodeIdentity(w *writer, id *MobileIdentity) {
	switch {
	case id.SUCI != nil:
		w.u8(IdentityTypeSUCI)
		s := id.SUCI
		w.str(s.MCC)
		w.str(s.MNC)
		w.str(s.RoutingIndicator)
		w.u8(s.Scheme)
		w.u8(s.HomeKeyID)
		w.lv16(s.SchemeOutput)
	case id.GUTI != nil:
		w.u8(IdentityTypeGUTI)
		encodeGUTI(w, id.GUTI)
	}
}

func decodeIdentity(r *reader, id *MobileIdentity) error {
	switch t := r.u8(); t {
	case IdentityTypeSUCI:
		s := &suci.SUCI{}
		s.MCC = r.internStr()
		s.MNC = r.internStr()
		s.RoutingIndicator = r.internStr()
		s.Scheme = r.u8()
		s.HomeKeyID = r.u8()
		s.SchemeOutput = r.lv16()
		id.SUCI = s
		return r.err
	case IdentityTypeGUTI:
		g := &GUTI{}
		if err := decodeGUTI(r, g); err != nil {
			return err
		}
		id.GUTI = g
		return r.err
	default:
		if r.err != nil {
			return r.err
		}
		return fmt.Errorf("nas: unknown mobile identity type %d", t)
	}
}

func encodeGUTI(w *writer, g *GUTI) {
	w.str(g.MCC)
	w.str(g.MNC)
	w.u8(g.AMFRegionID)
	w.u16(g.AMFSetID)
	w.u8(g.AMFPointer)
	w.u32(g.TMSI)
}

func decodeGUTI(r *reader, g *GUTI) error {
	g.MCC = r.internStr()
	g.MNC = r.internStr()
	g.AMFRegionID = r.u8()
	g.AMFSetID = r.u16()
	g.AMFPointer = r.u8()
	g.TMSI = r.u32()
	return r.err
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

func (r *reader) lv16() []byte {
	n := int(r.u16())
	b := r.take(n)
	if b == nil {
		return nil
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
//
//shieldlint:hotpath
func (r *reader) internStr() string {
	n := int(r.u8())
	return intern.Bytes(r.take(n))
}
