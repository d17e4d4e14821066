package nas

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"

	"shield5g/internal/crypto/hashpool"
	"shield5g/internal/crypto/kdf"
)

// NAS security algorithm identifiers (TS 33.501 §5.11.1). This simulation
// implements the "2" algorithms with stdlib primitives: AES-CTR ciphering
// for 128-NEA2 and an HMAC-SHA-256/32 tag standing in for 128-NIA2's
// AES-CMAC (same key schedule and interface, equivalent forgery
// resistance at the 32-bit tag length).
const (
	AlgNEA0 byte = 0x0 // null ciphering
	AlgNEA2 byte = 0x2
	AlgNIA2 byte = 0x2
)

// macLen is the NAS message authentication code length (TS 24.501 §9.8).
const macLen = 4

// Security errors.
var (
	// ErrIntegrity reports a NAS MAC verification failure.
	ErrIntegrity = errors.New("nas: integrity check failed")
	// ErrReplay reports a NAS sequence number at or behind the receive
	// window.
	ErrReplay = errors.New("nas: replayed or stale sequence number")
)

// Direction of a protected message.
const (
	dirUplink   byte = 0
	dirDownlink byte = 1
)

// SecurityContext holds one activated NAS security association. Create one
// on each side from the shared K_AMF after a successful AKA run, or
// re-key one in place with Activate; Clear zeroes it. It is not safe for
// concurrent use; NAS signalling per UE is sequential.
//
// Between procedures a context needs only its two keys and two COUNTs. The
// AES key schedule of K_NASenc (about 500 B) is expanded by the first
// message the context ciphers and kept while a procedure runs; DropCipher
// releases it when the procedure ends (the AMF does at
// RegistrationComplete), and the next ciphered message expands it again.
// The MAC keeps no state at all: each tag keys a pooled HMAC from intKey.
type SecurityContext struct {
	// encKey and intKey are in-struct arrays (not slices) so key
	// derivation into an activated context costs no allocations beyond
	// the context itself.
	encKey [kdf.KeyLen128]byte
	intKey [kdf.KeyLen128]byte

	// block is the expanded K_NASenc schedule while a procedure runs, nil
	// between procedures (see above). hdrBuf is the MAC's header scratch, a
	// field because the pooled state writes it through an interface
	// (single-threaded per context, see above).
	block  cipher.Block
	hdrBuf [5]byte
	// ctrIV and ctrKS are the counter block and keystream scratch of
	// xorKeyStream; fields so the interface call block.Encrypt does not
	// heap-allocate them per message.
	ctrIV [aes.BlockSize]byte
	ctrKS [aes.BlockSize]byte

	IntegrityAlg byte
	CipheringAlg byte

	uplinkCount   uint32
	downlinkCount uint32
}

// NewSecurityContext allocates a context and activates it from K_AMF.
func NewSecurityContext(kamf []byte) (*SecurityContext, error) {
	sc := new(SecurityContext)
	if err := sc.Activate(kamf); err != nil {
		return nil, err
	}
	return sc, nil
}

// Activate re-keys sc in place from K_AMF (TS 33.501 Annex A.8): it
// resets everything, the COUNTs and any held K_NASenc schedule included,
// then derives both NAS keys. On error sc is left cleared.
func (sc *SecurityContext) Activate(kamf []byte) error {
	*sc = SecurityContext{IntegrityAlg: AlgNIA2, CipheringAlg: AlgNEA2}
	if err := kdf.AlgorithmKeyInto(sc.encKey[:], kamf, kdf.AlgoNASEncryption, AlgNEA2); err != nil {
		sc.Clear()
		return fmt.Errorf("nas: derive K_NASenc: %w", err)
	}
	if err := kdf.AlgorithmKeyInto(sc.intKey[:], kamf, kdf.AlgoNASIntegrity, AlgNIA2); err != nil {
		sc.Clear()
		return fmt.Errorf("nas: derive K_NASint: %w", err)
	}
	return nil
}

// Clear zeroes the context: keys, COUNTs and schedule. It protects
// nothing until the next Activate.
func (sc *SecurityContext) Clear() { *sc = SecurityContext{} }

// Active reports whether the context holds keys: it was activated and
// not cleared since.
func (sc *SecurityContext) Active() bool { return sc.intKey != [kdf.KeyLen128]byte{} }

// DropCipher releases the expanded K_NASenc schedule at the end of a
// procedure. The keys and COUNTs stay, so the context protects and
// verifies exactly as before; the next ciphered message pays one key
// expansion to rebuild the schedule.
func (sc *SecurityContext) DropCipher() { sc.block = nil }

// HoldsCipher reports whether the context holds an expanded K_NASenc
// schedule, that is, whether it has ciphered since it was created or last
// dropped the schedule.
func (sc *SecurityContext) HoldsCipher() bool { return sc.block != nil }

// cipherBlock returns the K_NASenc schedule, expanding it if the context
// holds none.
func (sc *SecurityContext) cipherBlock() cipher.Block {
	if sc.block == nil {
		block, err := aes.NewCipher(sc.encKey[:])
		if err != nil {
			// K_NASenc is a fixed 16-byte array; this cannot happen.
			panic(fmt.Sprintf("nas: K_NASenc schedule: %v", err))
		}
		sc.block = block
	}
	return sc.block
}

// protectedHdr is the length of a protected message's header.
const protectedHdr = 2 + macLen + 4

// Protect encodes msg and wraps it as an integrity-protected and ciphered
// NAS message for the given direction, consuming one sequence number. The
// result is a pooled PDU under the ownership rule of Encode.
//
// Wire format: EPD || SHT || MAC[4] || SEQ[4] || ciphertext.
func (sc *SecurityContext) Protect(msg Message, uplink bool) ([]byte, error) {
	// The plaintext is encoded straight into its final position and
	// ciphered in place; MAC and SEQ then fill the header.
	buf := newPDU()
	out, err := appendEncode(buf[:protectedHdr], msg)
	if err != nil {
		Release(buf)
		return nil, err
	}
	dir, count := sc.sendState(uplink)
	out[0], out[1] = EPD5GMM, shtProtected
	ct := out[protectedHdr:]
	sc.xorKeyStream(ct, ct, dir, count)
	tag := sc.mac(dir, count, ct)
	copy(out[2:2+macLen], tag[:])
	binary.BigEndian.PutUint32(out[2+macLen:protectedHdr], count)
	sc.advanceSend(uplink)
	return settle(buf, out), nil
}

// Unprotect verifies and deciphers a protected NAS message from the given
// direction (uplink=true means the receiver is the network side) into
// fresh storage. Receivers on the registration path use UnprotectInto.
func (sc *SecurityContext) Unprotect(data []byte, uplink bool) (Message, error) {
	return sc.UnprotectInto(data, uplink, new(Inbox))
}

// UnprotectInto verifies and deciphers a protected NAS message from the
// given direction into in's slot for its type (see DecodeInto) and
// returns that slot.
func (sc *SecurityContext) UnprotectInto(data []byte, uplink bool, in *Inbox) (Message, error) {
	in.typ = 0
	if len(data) < protectedHdr {
		return nil, fmt.Errorf("%w: protected header", ErrTruncated)
	}
	if data[0] != EPD5GMM {
		return nil, fmt.Errorf("%w: 0x%02X", ErrBadDiscriminator, data[0])
	}
	if data[1] != shtProtected {
		return nil, fmt.Errorf("nas: security header type %d, want %d", data[1], shtProtected)
	}
	mac := data[2 : 2+macLen]
	count := binary.BigEndian.Uint32(data[2+macLen : protectedHdr])
	ct := data[protectedHdr:]

	dir := dirDownlink
	expect := &sc.downlinkCount
	if uplink {
		dir = dirUplink
		expect = &sc.uplinkCount
	}
	if count < *expect {
		return nil, fmt.Errorf("%w: got %d, expect >= %d", ErrReplay, count, *expect)
	}
	if tag := sc.mac(dir, count, ct); !hmac.Equal(mac, tag[:]) {
		return nil, ErrIntegrity
	}

	// The payload is deciphered into pooled scratch, never into data:
	// the caller may decode the same PDU again. DecodeInto copies every
	// field out, so the scratch goes back at once.
	buf := newPDU()
	plain := append(buf, ct...)
	sc.xorKeyStream(plain, plain, dir, count)
	msg, err := DecodeInto(plain, in)
	Release(buf)
	if err != nil {
		return nil, fmt.Errorf("nas: deciphered payload: %w", err)
	}
	*expect = count + 1
	return msg, nil
}

func (sc *SecurityContext) sendState(uplink bool) (byte, uint32) {
	if uplink {
		return dirUplink, sc.uplinkCount
	}
	return dirDownlink, sc.downlinkCount
}

func (sc *SecurityContext) advanceSend(uplink bool) {
	if uplink {
		sc.uplinkCount++
	} else {
		sc.downlinkCount++
	}
}

// xorKeyStream applies the NEA2-style AES-CTR keystream for
// (direction, count) to src, writing into dst (dst and src may alias).
// It is bit-identical to cipher.NewCTR over the same initial counter
// block — the counter is incremented big-endian across all 16 bytes —
// but reuses the context's scratch instead of allocating a stream state
// per message.
func (sc *SecurityContext) xorKeyStream(dst, src []byte, dir byte, count uint32) {
	block := sc.cipherBlock()
	iv := sc.ctrIV[:]
	clear(iv)
	binary.BigEndian.PutUint32(iv[0:4], count)
	iv[4] = dir << 2 // bearer(0) || direction, per the NEA IV layout
	ks := sc.ctrKS[:]
	for len(src) > 0 {
		block.Encrypt(ks, iv)
		n := subtle.XORBytes(dst, src, ks)
		dst, src = dst[n:], src[n:]
		for j := aes.BlockSize - 1; j >= 0; j-- {
			iv[j]++
			if iv[j] != 0 {
				break
			}
		}
	}
}

// mac computes the 32-bit NAS MAC over (direction, count, payload): the
// leading 32 bits of HMAC-SHA-256(K_NASint, COUNT || DIR || payload).
func (sc *SecurityContext) mac(dir byte, count uint32, payload []byte) (tag [macLen]byte) {
	binary.BigEndian.PutUint32(sc.hdrBuf[0:4], count)
	sc.hdrBuf[4] = dir
	m := hashpool.GetHMAC(sc.intKey[:])
	m.Write(sc.hdrBuf[:])
	m.Write(payload)
	var sum [sha256.Size]byte
	m.SumInto(sum[:])
	hashpool.PutHMAC(m)
	copy(tag[:], sum[:])
	return tag
}
