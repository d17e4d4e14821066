// Package suci implements SUPI concealment and de-concealment using ECIES
// Protection Scheme Profile A from TS 33.501 Annex C: Curve25519 key
// agreement, ANSI X9.63 key derivation with SHA-256, AES-128-CTR
// encryption, and a 64-bit HMAC-SHA-256 tag.
//
// In the paper's flow the UE conceals its SUPI into a SUCI before the
// initial registration request; the UDM holds the home-network private key
// and de-conceals the SUCI before authentication-vector generation. The
// home-network private key is exactly the kind of long-term secret the
// paper argues must live inside an HMEE.
package suci

import (
	"crypto/aes"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"shield5g/internal/crypto/hashpool"
	"shield5g/internal/sbi/codec"
)

// Protection scheme identifiers from TS 23.003 §2.2B.
const (
	SchemeNull     byte = 0x0
	SchemeProfileA byte = 0x1
	SchemeProfileB byte = 0x2
)

// Profile A parameter sizes in bytes.
const (
	ephemeralKeyLen = 32 // Curve25519 public key
	encKeyLen       = 16 // AES-128 key
	icbLen          = 16 // initial counter block
	macKeyLen       = 32 // HMAC-SHA-256 key
	tagLen          = 8  // truncated MAC tag
)

// ErrIntegrity reports a SUCI whose MAC tag failed verification.
var ErrIntegrity = errors.New("suci: integrity check failed")

// SUPI is a subscription permanent identifier in IMSI form.
type SUPI struct {
	MCC  string // 3-digit mobile country code
	MNC  string // 2- or 3-digit mobile network code
	MSIN string // 9- or 10-digit subscriber number
}

// String renders the SUPI in the canonical "imsi-<digits>" form used as the
// KDF input for K_AMF derivation.
func (s SUPI) String() string { return "imsi-" + s.MCC + s.MNC + s.MSIN }

// Value is the SUPI as the SBI carries it, built in place: its text is
// assembled on the stack and parsed there, so nothing is allocated. A SUPI
// that does not fit codec.SUPI is an error.
func (s SUPI) Value() (codec.SUPI, error) {
	var buf [32]byte
	var v codec.SUPI
	err := v.UnmarshalText(append(append(append(append(buf[:0], "imsi-"...), s.MCC...), s.MNC...), s.MSIN...))
	return v, err
}

// value is the codec.SUPI of the MCC, MNC and MSIN a SUCI carries, each
// checked digit by digit as Validate checks them. The MSIN is a view of a
// decrypted plaintext; it is read in place and neither it nor the text is
// copied to the heap.
func value(mcc, mnc string, msin []byte) (codec.SUPI, error) {
	switch {
	case len(mcc) != 3 || !digits(mcc):
		return codec.SUPI{}, fmt.Errorf("suci: bad MCC %q", mcc)
	case (len(mnc) != 2 && len(mnc) != 3) || !digits(mnc):
		return codec.SUPI{}, fmt.Errorf("suci: bad MNC %q", mnc)
	case len(msin) < 5 || len(msin) > 10 || !digits(string(msin)):
		return codec.SUPI{}, fmt.Errorf("suci: bad MSIN %q", string(msin))
	}
	var buf [len("imsi-") + 16]byte
	var v codec.SUPI
	err := v.UnmarshalText(append(append(append(append(buf[:0], "imsi-"...), mcc...), mnc...), msin...))
	return v, err
}

// Validate checks digit-string well-formedness.
func (s SUPI) Validate() error {
	if len(s.MCC) != 3 || !digits(s.MCC) {
		return fmt.Errorf("suci: bad MCC %q", s.MCC)
	}
	if (len(s.MNC) != 2 && len(s.MNC) != 3) || !digits(s.MNC) {
		return fmt.Errorf("suci: bad MNC %q", s.MNC)
	}
	if len(s.MSIN) < 5 || len(s.MSIN) > 10 || !digits(s.MSIN) {
		return fmt.Errorf("suci: bad MSIN %q", s.MSIN)
	}
	return nil
}

func digits(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return len(s) > 0
}

// SUCI is a subscription concealed identifier. The home-network identity
// (MCC/MNC) and routing information stay in clear text so the serving
// network can route the request; only the MSIN is concealed.
type SUCI struct {
	MCC              string
	MNC              string
	RoutingIndicator string
	Scheme           byte
	HomeKeyID        byte
	// SchemeOutput is, for Profile A: ephemeral public key || ciphertext
	// || 8-byte MAC tag. For the null scheme it is the plaintext MSIN.
	SchemeOutput []byte
}

// HomeNetworkKey is the home network's ECIES key pair, identified by the
// key ID provisioned to subscribers.
type HomeNetworkKey struct {
	ID   byte
	priv *ecdh.PrivateKey
}

// GenerateHomeNetworkKey creates a Curve25519 home-network key pair using
// entropy from rand.
func GenerateHomeNetworkKey(rand io.Reader, id byte) (*HomeNetworkKey, error) {
	priv, err := ecdh.X25519().GenerateKey(rand)
	if err != nil {
		return nil, fmt.Errorf("suci: generate home network key: %w", err)
	}
	return &HomeNetworkKey{ID: id, priv: priv}, nil
}

// PublicKey returns the 32-byte public key provisioned to subscribers.
func (k *HomeNetworkKey) PublicKey() []byte { return k.priv.PublicKey().Bytes() }

// Bytes returns the 32-byte private scalar (for sealing).
func (k *HomeNetworkKey) Bytes() []byte { return k.priv.Bytes() }

// ConcealNull builds a null-scheme SUCI (TS 33.501 Annex C.2): the MSIN
// travels in plain text. 3GPP permits it for unauthenticated emergency
// sessions and test networks; it offers no identity privacy and exists
// here so the privacy difference is demonstrable.
func ConcealNull(supi SUPI, routingIndicator string) (*SUCI, error) {
	if err := supi.Validate(); err != nil {
		return nil, err
	}
	return &SUCI{
		MCC:              supi.MCC,
		MNC:              supi.MNC,
		RoutingIndicator: routingIndicator,
		Scheme:           SchemeNull,
		SchemeOutput:     []byte(supi.MSIN),
	}, nil
}

// NullSUPI recovers the SUPI from a null-scheme SUCI, as the value the
// SBI carries.
func (s *SUCI) NullSUPI() (codec.SUPI, error) {
	if s.Scheme != SchemeNull {
		return codec.SUPI{}, fmt.Errorf("suci: scheme %d is not the null scheme", s.Scheme)
	}
	supi, err := value(s.MCC, s.MNC, s.SchemeOutput)
	if err != nil {
		return codec.SUPI{}, fmt.Errorf("suci: null-scheme SUPI invalid: %w", err)
	}
	return supi, nil
}

// Conceal encrypts the MSIN of supi to the home-network public key hnPub
// using ECIES Profile A, producing a SUCI. rand supplies the ephemeral key
// entropy.
func Conceal(rand io.Reader, supi SUPI, routingIndicator string, hnPub []byte, keyID byte) (*SUCI, error) {
	if err := supi.Validate(); err != nil {
		return nil, err
	}
	if len(hnPub) != ephemeralKeyLen {
		return nil, fmt.Errorf("suci: home network public key length %d, want %d", len(hnPub), ephemeralKeyLen)
	}
	ephPriv, err := ecdh.X25519().GenerateKey(rand)
	if err != nil {
		return nil, fmt.Errorf("suci: generate ephemeral key: %w", err)
	}
	peer, err := ecdh.X25519().NewPublicKey(hnPub)
	if err != nil {
		return nil, fmt.Errorf("suci: parse home network public key: %w", err)
	}
	shared, err := ephPriv.ECDH(peer)
	if err != nil {
		return nil, fmt.Errorf("suci: ECDH: %w", err)
	}
	ephPub := ephPriv.PublicKey().Bytes()
	ks := kdfScratchPool.Get().(*kdfScratch)
	encKey, icb, macKey := deriveKeys(shared, ephPub, ks)

	// Assemble ephPub || ciphertext || tag directly in the output buffer.
	out := make([]byte, len(ephPub)+len(supi.MSIN)+tagLen)
	copy(out, ephPub)
	ciphertext := out[len(ephPub) : len(ephPub)+len(supi.MSIN)]
	ctr(encKey, icb, ciphertext, []byte(supi.MSIN))
	computeTagInto(macKey, ciphertext, &ks.tag)
	copy(out[len(ephPub)+len(supi.MSIN):], ks.tag[:tagLen])
	putKDFScratch(ks)
	return &SUCI{
		MCC:              supi.MCC,
		MNC:              supi.MNC,
		RoutingIndicator: routingIndicator,
		Scheme:           SchemeProfileA,
		HomeKeyID:        keyID,
		SchemeOutput:     out,
	}, nil
}

// Deconceal recovers the SUPI from a Profile A SUCI using the home-network
// private key, as the value the SBI carries: the MSIN is decrypted into a
// stack buffer and checked there digit by digit. It returns ErrIntegrity if
// the MAC tag does not verify.
func (k *HomeNetworkKey) Deconceal(s *SUCI) (codec.SUPI, error) {
	if s == nil {
		return codec.SUPI{}, errors.New("suci: nil SUCI")
	}
	if s.Scheme != SchemeProfileA {
		return codec.SUPI{}, fmt.Errorf("suci: unsupported protection scheme %d", s.Scheme)
	}
	if s.HomeKeyID != k.ID {
		return codec.SUPI{}, fmt.Errorf("suci: key ID %d does not match home network key %d", s.HomeKeyID, k.ID)
	}
	if len(s.SchemeOutput) < ephemeralKeyLen+1+tagLen {
		return codec.SUPI{}, fmt.Errorf("suci: scheme output too short (%d bytes)", len(s.SchemeOutput))
	}
	ephPub := s.SchemeOutput[:ephemeralKeyLen]
	ciphertext := s.SchemeOutput[ephemeralKeyLen : len(s.SchemeOutput)-tagLen]
	tag := s.SchemeOutput[len(s.SchemeOutput)-tagLen:]

	peer, err := ecdh.X25519().NewPublicKey(ephPub)
	if err != nil {
		return codec.SUPI{}, fmt.Errorf("suci: parse ephemeral public key: %w", err)
	}
	shared, err := k.priv.ECDH(peer)
	if err != nil {
		return codec.SUPI{}, fmt.Errorf("suci: ECDH: %w", err)
	}
	ks := kdfScratchPool.Get().(*kdfScratch)
	encKey, icb, macKey := deriveKeys(shared, ephPub, ks)
	computeTagInto(macKey, ciphertext, &ks.tag)
	if !hmac.Equal(tag, ks.tag[:tagLen]) {
		putKDFScratch(ks)
		return codec.SUPI{}, ErrIntegrity
	}
	// MSIN-sized plaintexts fit on the stack, and nothing copies them off
	// it.
	var ptBuf [32]byte
	plaintext := ptBuf[:0]
	if len(ciphertext) > len(ptBuf) {
		plaintext = make([]byte, len(ciphertext))
	} else {
		plaintext = ptBuf[:len(ciphertext)]
	}
	ctr(encKey, icb, plaintext, ciphertext)
	putKDFScratch(ks)

	supi, err := value(s.MCC, s.MNC, plaintext)
	if err != nil {
		return codec.SUPI{}, fmt.Errorf("suci: deconcealed SUPI invalid: %w", err)
	}
	return supi, nil
}

// kdfScratch holds one concealment's derived key block, counter word and
// MAC tag. Pooled because the slices handed to hash interfaces would
// otherwise escape to the heap on every Conceal/Deconceal.
type kdfScratch struct {
	out [encKeyLen + icbLen + macKeyLen]byte
	ctr [4]byte
	tag [sha256.Size]byte
}

var kdfScratchPool = sync.Pool{New: func() any { return new(kdfScratch) }}

// putKDFScratch scrubs the derived enc/MAC keys (and tag) before
// recycling, matching the discipline hashpool.PutHMAC establishes: pooled
// memory never retains key material between operations.
func putKDFScratch(ks *kdfScratch) {
	*ks = kdfScratch{}
	kdfScratchPool.Put(ks)
}

// deriveKeys runs the ANSI X9.63 KDF with SHA-256 over the shared secret,
// with the ephemeral public key as SharedInfo, and splits the output into
// the AES key, initial counter block and MAC key (TS 33.501 C.3.2). The
// returned slices alias ks.out and are valid until ks is re-pooled.
func deriveKeys(shared, ephPub []byte, ks *kdfScratch) (encKey, icb, macKey []byte) {
	const total = encKeyLen + icbLen + macKeyLen
	out := ks.out[:0]
	var counter uint32 = 1
	h := hashpool.GetSHA256()
	for len(out) < total {
		h.Reset()
		h.Write(shared)
		binary.BigEndian.PutUint32(ks.ctr[:], counter)
		h.Write(ks.ctr[:])
		h.Write(ephPub)
		out = h.Sum(out)
		counter++
	}
	hashpool.PutSHA256(h)
	return out[:encKeyLen], out[encKeyLen : encKeyLen+icbLen], out[encKeyLen+icbLen : total]
}

// ctrScratch holds one CTR pass's counter block and keystream block;
// pooled so the interface call block.Encrypt has heap destinations
// without a per-call allocation.
type ctrScratch struct {
	iv, ks [aes.BlockSize]byte
}

var ctrScratchPool = sync.Pool{New: func() any { return new(ctrScratch) }}

// putCTRScratch scrubs the counter and keystream blocks before recycling:
// the keystream XORs directly against the MSIN plaintext and must not
// outlive the pass in pooled memory.
func putCTRScratch(st *ctrScratch) {
	*st = ctrScratch{}
	ctrScratchPool.Put(st)
}

// ctr encrypts src into dst with AES-CTR under key. The key schedule is
// scoped to this one pass — every ECIES exchange derives a fresh
// ephemeral encryption key, so caching schedules across calls would only
// pin key material in process-lifetime memory for a cache that almost
// never hits.
func ctr(key, icb, dst, src []byte) {
	block, err := aes.NewCipher(key)
	if err != nil {
		// Key length is fixed by deriveKeys; this cannot happen.
		panic(fmt.Sprintf("suci: AES key setup: %v", err))
	}
	// Manual CTR, bit-identical to cipher.NewCTR(block, icb) (the counter
	// increments big-endian across the whole block) but without the
	// per-call stream-state allocation; MSIN-sized payloads are one block.
	st := ctrScratchPool.Get().(*ctrScratch)
	iv, ks := st.iv[:], st.ks[:]
	copy(iv, icb)
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
	putCTRScratch(st)
}

// computeTagInto writes the full HMAC-SHA-256 of ciphertext into tag; the
// wire format carries only the first tagLen bytes.
func computeTagInto(macKey, ciphertext []byte, tag *[sha256.Size]byte) {
	mac := hashpool.GetHMAC(macKey)
	mac.Write(ciphertext)
	mac.Sum(tag[:0])
	hashpool.PutHMAC(mac)
}

// String renders the SUCI in the 3GPP presentation format
// suci-0-<mcc>-<mnc>-<ri>-<scheme>-<keyid>-<hex output>.
func (s *SUCI) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "suci-0-%s-%s-%s-%d-%d-%x", s.MCC, s.MNC, s.RoutingIndicator, s.Scheme, s.HomeKeyID, s.SchemeOutput)
	return b.String()
}
