// Package kdf implements the 3GPP key derivation functions used by 5G-AKA:
// the generic HMAC-SHA-256 KDF of TS 33.220 Annex B and the specific
// derivations of TS 33.501 Annex A that produce the 5G key hierarchy
// (K_AUSF, K_SEAF, K_AMF, NAS keys) and the authentication responses
// (RES*/XRES*, HXRES*).
//
// These are exactly the derivations the paper's P-AKA modules execute
// inside SGX enclaves: the eUDM module derives K_AUSF and XRES*, the eAUSF
// module derives HXRES* and K_SEAF, and the eAMF module derives K_AMF.
package kdf

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"shield5g/internal/crypto/hashpool"
)

// Function code values from TS 33.501 Annex A.
const (
	fcKAUSF   = 0x6A
	fcResStar = 0x6B
	fcKSEAF   = 0x6C
	fcKAMF    = 0x6D
	fcAlgoKey = 0x69
)

// Key sizes in bytes.
const (
	KeyLen256 = 32 // K_AUSF, K_SEAF, K_AMF
	KeyLen128 = 16 // RES*, HXRES*, NAS algorithm keys
)

// AlgorithmType distinguishes the protected-traffic type in NAS/AS
// algorithm key derivation (TS 33.501 Annex A.8).
type AlgorithmType byte

const (
	// AlgoNASEncryption selects NAS confidentiality keys.
	AlgoNASEncryption AlgorithmType = 0x01
	// AlgoNASIntegrity selects NAS integrity keys.
	AlgoNASIntegrity AlgorithmType = 0x02
)

// sBuilderPool recycles the FC||P0||L0||... input string built per KDF
// invocation; SNN-sized inputs fit the 128-byte seed capacity.
var sBuilderPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 128)
	return &b
}}

// GenericInto computes the TS 33.220 Annex B KDF:
//
//	HMAC-SHA-256(key, FC || P0 || L0 || P1 || L1 || ...)
//
// where each Li is the 16-bit big-endian length of Pi, into dst, which must
// hold at least 32 bytes. The HMAC state and input scratch come from pools
// and dst never crosses a hash.Hash interface boundary, so a
// stack-allocated or caller-owned dst performs no heap allocation at all.
//
//shieldlint:hotpath
func GenericInto(dst, key []byte, fc byte, params ...[]byte) {
	sp := sBuilderPool.Get().(*[]byte)
	s := append((*sp)[:0], fc)
	for _, p := range params {
		s = append(s, p...)
		s = binary.BigEndian.AppendUint16(s, uint16(len(p)))
	}
	mac := hashpool.GetHMAC(key)
	mac.Write(s)
	mac.SumInto(dst)
	hashpool.PutHMAC(mac)
	*sp = s[:0]
	sBuilderPool.Put(sp)
}

// KAUSFInto derives K_AUSF from CK||IK (TS 33.501 A.2) into the 32-byte
// dst. sqnXorAK is the 6-byte SQN XOR AK value that also appears in AUTN.
func KAUSFInto(dst, ck, ik []byte, snn string, sqnXorAK []byte) error {
	if len(dst) != KeyLen256 {
		return fmt.Errorf("kdf: K_AUSF dst length %d, want %d", len(dst), KeyLen256)
	}
	if len(ck) != 16 || len(ik) != 16 {
		return fmt.Errorf("kdf: CK/IK lengths %d/%d, want 16/16", len(ck), len(ik))
	}
	if len(sqnXorAK) != 6 {
		return fmt.Errorf("kdf: SQN^AK length %d, want 6", len(sqnXorAK))
	}
	// CK||IK on the stack: the key is copied into the pooled HMAC's pad
	// blocks, never retained.
	var key [32]byte
	copy(key[:16], ck)
	copy(key[16:], ik)
	GenericInto(dst, key[:], fcKAUSF, []byte(snn), sqnXorAK)
	return nil
}

// ResStarInto derives RES* (UE side) or XRES* (network side) from CK||IK
// (TS 33.501 A.4) into the 16-byte dst: the 128 least-significant bits of
// the KDF output, whose discarded upper half lives on the stack.
func ResStarInto(dst, ck, ik []byte, snn string, rand, res []byte) error {
	if len(dst) != KeyLen128 {
		return fmt.Errorf("kdf: RES* dst length %d, want %d", len(dst), KeyLen128)
	}
	if len(ck) != 16 || len(ik) != 16 {
		return fmt.Errorf("kdf: CK/IK lengths %d/%d, want 16/16", len(ck), len(ik))
	}
	if len(rand) != 16 {
		return fmt.Errorf("kdf: RAND length %d, want 16", len(rand))
	}
	if len(res) != 8 {
		return fmt.Errorf("kdf: RES length %d, want 8", len(res))
	}
	var key [32]byte
	copy(key[:16], ck)
	copy(key[16:], ik)
	var out [sha256.Size]byte
	GenericInto(out[:], key[:], fcResStar, []byte(snn), rand, res)
	copy(dst, out[sha256.Size-KeyLen128:])
	return nil
}

// hxresScratchPool recycles the full-width digest buffer of HXResStarInto
// so the pooled hash's interface Sum call has a heap destination without a
// per-call allocation.
var hxresScratchPool = sync.Pool{New: func() any { return new([sha256.Size]byte) }}

// HXResStarInto derives HXRES* = the 128 most-significant bits of
// SHA-256(RAND || XRES*) (TS 33.501 A.5) into the 16-byte dst. This is the
// value the paper's eAUSF P-AKA module computes inside the enclave.
//
// Note: the paper's Table I lists HXRES* as 8 bytes; TS 33.501 defines 16.
// We implement the specification value and report both in the Table I
// reproduction (see EXPERIMENTS.md).
func HXResStarInto(dst, rand, xresStar []byte) error {
	if len(dst) != KeyLen128 {
		return fmt.Errorf("kdf: HXRES* dst length %d, want %d", len(dst), KeyLen128)
	}
	if len(rand) != 16 {
		return fmt.Errorf("kdf: RAND length %d, want 16", len(rand))
	}
	if len(xresStar) != 16 {
		return fmt.Errorf("kdf: XRES* length %d, want 16", len(xresStar))
	}
	h := hashpool.GetSHA256()
	h.Write(rand)
	h.Write(xresStar)
	buf := hxresScratchPool.Get().(*[sha256.Size]byte)
	copy(dst, h.Sum(buf[:0])[:KeyLen128])
	hxresScratchPool.Put(buf)
	hashpool.PutSHA256(h)
	return nil
}

// KSEAFInto derives the serving-network anchor key K_SEAF from K_AUSF
// (TS 33.501 A.6) into the 32-byte dst.
func KSEAFInto(dst, kausf []byte, snn string) error {
	if len(dst) != KeyLen256 {
		return fmt.Errorf("kdf: K_SEAF dst length %d, want %d", len(dst), KeyLen256)
	}
	if len(kausf) != KeyLen256 {
		return fmt.Errorf("kdf: K_AUSF length %d, want %d", len(kausf), KeyLen256)
	}
	GenericInto(dst, kausf, fcKSEAF, []byte(snn))
	return nil
}

// KAMFInto derives K_AMF from K_SEAF (TS 33.501 A.7) into the 32-byte dst.
// supi is the subscription permanent identifier in its IMSI string form;
// abba is the Anti-Bidding down Between Architectures parameter (0x0000 in
// this release, and when empty).
func KAMFInto(dst, kseaf []byte, supi string, abba []byte) error {
	if len(dst) != KeyLen256 {
		return fmt.Errorf("kdf: K_AMF dst length %d, want %d", len(dst), KeyLen256)
	}
	if len(kseaf) != KeyLen256 {
		return fmt.Errorf("kdf: K_SEAF length %d, want %d", len(kseaf), KeyLen256)
	}
	if len(abba) == 0 {
		abba = []byte{0x00, 0x00}
	}
	GenericInto(dst, kseaf, fcKAMF, []byte(supi), abba)
	return nil
}

// AlgorithmKeyInto derives a 128-bit NAS protection key from K_AMF
// (TS 33.501 A.8) into the 16-byte dst: the 128 least-significant bits of
// the KDF output, whose discarded upper half lives on the stack.
func AlgorithmKeyInto(dst, kamf []byte, typ AlgorithmType, algoID byte) error {
	if len(dst) != KeyLen128 {
		return fmt.Errorf("kdf: algorithm key dst length %d, want %d", len(dst), KeyLen128)
	}
	if len(kamf) != KeyLen256 {
		return fmt.Errorf("kdf: K_AMF length %d, want %d", len(kamf), KeyLen256)
	}
	var out [sha256.Size]byte
	GenericInto(out[:], kamf, fcAlgoKey, []byte{byte(typ)}, []byte{algoID})
	copy(dst, out[sha256.Size-KeyLen128:])
	return nil
}

// ServingNetworkName builds the SNN string of TS 24.501 §9.12.1, e.g.
// "5G:mnc001.mcc001.3gppnetwork.org" for PLMN 00101.
func ServingNetworkName(mcc, mnc string) string {
	if len(mnc) == 2 {
		mnc = "0" + mnc
	}
	return fmt.Sprintf("5G:mnc%s.mcc%s.3gppnetwork.org", mnc, mcc)
}

// XorSQNAK computes SQN XOR AK, the concealed sequence number carried in
// AUTN.
func XorSQNAK(sqn, ak []byte) ([]byte, error) {
	if len(sqn) != 6 || len(ak) != 6 {
		return nil, fmt.Errorf("kdf: SQN/AK lengths %d/%d, want 6/6", len(sqn), len(ak))
	}
	out := make([]byte, 6)
	for i := range out {
		out[i] = sqn[i] ^ ak[i]
	}
	return out, nil
}

// SplitAUTN splits a 16-byte authentication token
// AUTN = (SQN XOR AK) || AMF || MAC-A into its components.
func SplitAUTN(autn []byte) (sqnXorAK, amf, macA []byte, err error) {
	if len(autn) != 16 {
		return nil, nil, nil, fmt.Errorf("kdf: AUTN length %d, want 16", len(autn))
	}
	return autn[0:6], autn[6:8], autn[8:16], nil
}
