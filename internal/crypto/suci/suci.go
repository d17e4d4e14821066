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
//
// Each direction allocates what crypto/ecdh and crypto/aes construct and
// what its caller keeps, nothing more. Conceal reads exactly the ephemeral
// scalar from its reader, into pooled scratch that is zeroed on return, so
// a seeded UE conceals the same SUCIs on every run; it parses the
// home-network public key once per key, and writes the ephemeral public
// key straight into the scheme output, whose first 32 bytes are then the
// KDF's SharedInfo. Deconceal decrypts the MSIN into a stack buffer and
// returns the SUPI as the codec.SUPI value the SBI carries.
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
	"sync/atomic"

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

// Value is the SUPI as the SBI carries it, built in place: its MCC, MNC and
// MSIN are checked digit by digit, and its text is assembled on the stack
// and parsed there, so nothing is allocated. It is the one check of a
// SUPI's well-formedness.
func (s SUPI) Value() (codec.SUPI, error) { return value(s.MCC, s.MNC, []byte(s.MSIN)) }

// value is the codec.SUPI of an MCC, MNC and MSIN, each checked digit by
// digit: a SUPI's, or the ones a SUCI carries, whose MSIN is a view of a
// decrypted plaintext. The MSIN is read in place and neither it nor the
// text is copied to the heap.
func value(mcc, mnc string, msin []byte) (codec.SUPI, error) {
	switch {
	case len(mcc) != 3 || !digits(mcc):
		return codec.SUPI{}, fmt.Errorf("suci: bad MCC %q", mcc)
	case (len(mnc) != 2 && len(mnc) != 3) || !digits(mnc):
		return codec.SUPI{}, fmt.Errorf("suci: bad MNC %q", mnc)
	case len(msin) < 5 || len(msin) > 10 || !digits(string(msin)):
		return codec.SUPI{}, fmt.Errorf("suci: bad MSIN %q", string(msin))
	}
	var buf [codec.SUPITextLen]byte
	var v codec.SUPI
	err := v.UnmarshalText(append(append(append(append(buf[:0], "imsi-"...), mcc...), mnc...), msin...))
	return v, err
}

// Validate checks digit-string well-formedness: it is Value's error.
func (s SUPI) Validate() error {
	_, err := s.Value()
	return err
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
// using ECIES Profile A, producing a SUCI. rand supplies the ephemeral
// scalar's 32 bytes and nothing else, so a seeded reader gives the same
// SUCIs on every run.
func Conceal(rand io.Reader, supi SUPI, routingIndicator string, hnPub []byte, keyID byte) (*SUCI, error) {
	if err := supi.Validate(); err != nil {
		return nil, err
	}
	peer, err := homePublicKey(hnPub)
	if err != nil {
		return nil, err
	}
	// The scalar is drawn into pooled scratch, which putKDFScratch zeroes.
	// ecdh's GenerateKey would draw it into a fresh buffer, after reading
	// one more byte from rand at random.
	ks := kdfScratchPool.Get().(*kdfScratch)
	defer putKDFScratch(ks)
	if _, err := io.ReadFull(rand, ks.scalar[:]); err != nil {
		return nil, fmt.Errorf("suci: generate ephemeral key: %w", err)
	}
	ephPriv, err := ecdh.X25519().NewPrivateKey(ks.scalar[:])
	if err != nil {
		return nil, fmt.Errorf("suci: generate ephemeral key: %w", err)
	}
	shared, err := ephPriv.ECDH(peer)
	if err != nil {
		return nil, fmt.Errorf("suci: ECDH: %w", err)
	}

	// Assemble ephPub || ciphertext || tag directly in the output buffer;
	// its first ephemeralKeyLen bytes are the KDF's SharedInfo.
	out := make([]byte, ephemeralKeyLen+len(supi.MSIN)+tagLen)
	ephPub := out[:copy(out, ephPriv.PublicKey().Bytes())]
	encKey, icb, macKey := deriveKeys(shared, ephPub, ks)
	ciphertext := out[ephemeralKeyLen : ephemeralKeyLen+len(supi.MSIN)]
	ctr(encKey, icb, ciphertext, []byte(supi.MSIN))
	computeTagInto(macKey, ciphertext, &ks.tag)
	copy(out[ephemeralKeyLen+len(supi.MSIN):], ks.tag[:tagLen])
	return &SUCI{
		MCC:              supi.MCC,
		MNC:              supi.MNC,
		RoutingIndicator: routingIndicator,
		Scheme:           SchemeProfileA,
		HomeKeyID:        keyID,
		SchemeOutput:     out,
	}, nil
}

// lastHomeKey caches the last home-network public key Conceal parsed: a
// network provisions one key to all its subscribers, so its UEs conceal
// to the same key, and parsing it again per attach would allocate a key
// and a copy of its bytes. A different key replaces the entry.
var lastHomeKey atomic.Pointer[ecdh.PublicKey]

// homePublicKey returns hnPub parsed as an X25519 public key, from the
// cache when it holds these bytes.
func homePublicKey(hnPub []byte) (*ecdh.PublicKey, error) {
	if len(hnPub) != ephemeralKeyLen {
		return nil, fmt.Errorf("suci: home network public key length %d, want %d", len(hnPub), ephemeralKeyLen)
	}
	if key := lastHomeKey.Load(); key != nil && string(key.Bytes()) == string(hnPub) {
		return key, nil
	}
	key, err := ecdh.X25519().NewPublicKey(hnPub)
	if err != nil {
		return nil, fmt.Errorf("suci: parse home network public key: %w", err)
	}
	lastHomeKey.Store(key)
	return key, nil
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

// kdfScratch holds one concealment's ephemeral scalar, derived key block,
// counter word and MAC tag. Pooled because the slices handed to hash
// interfaces and to the random reader would otherwise escape to the heap
// on every Conceal/Deconceal.
type kdfScratch struct {
	scalar [32]byte // X25519 private key
	out    [encKeyLen + icbLen + macKeyLen]byte
	ctr    [4]byte
	tag    [sha256.Size]byte
}

var kdfScratchPool = sync.Pool{New: func() any { return new(kdfScratch) }}

// putKDFScratch scrubs the ephemeral scalar, the derived enc/MAC keys and
// the tag before recycling, matching the discipline hashpool.PutHMAC
// establishes: pooled memory never retains key material between
// operations.
func putKDFScratch(ks *kdfScratch) {
	*ks = kdfScratch{}
	kdfScratchPool.Put(ks)
}

// deriveKeys runs the ANSI X9.63 KDF with SHA-256 over the shared secret,
// with the ephemeral public key as SharedInfo, and splits the output into
// the AES key, initial counter block and MAC key (TS 33.501 C.3.2). The
// returned slices alias ks.out and are valid until ks is re-pooled.
//
// It clears shared, the fresh slice ecdh's ECDH returned, once the KDF has
// read it, so the X25519 secret does not linger in freed heap. The copy of
// the ephemeral scalar that crypto/ecdh keeps inside its private key is
// out of reach: only the scratch it was read from is scrubbed.
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
	clear(shared)
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
