// Package milenage implements the MILENAGE algorithm set (3GPP TS 35.205 /
// TS 35.206): the authentication and key-generation functions f1, f1*, f2,
// f3, f4, f5 and f5* built around AES-128, plus OPc derivation.
//
// MILENAGE is the algorithm the paper's eUDM P-AKA module executes inside
// the SGX enclave to generate the Home Environment authentication vector
// (RAND, AUTN, XRES*, K_AUSF inputs CK/IK), and the algorithm the USIM runs
// on the UE side to verify the network and compute RES*.
package milenage

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"sync"
)

// Algorithm parameter sizes in bytes.
const (
	KeyLen  = 16 // subscriber key K
	OPLen   = 16 // operator variant algorithm configuration field
	RandLen = 16 // authentication challenge RAND
	SQNLen  = 6  // sequence number
	AMFLen  = 2  // authentication management field
	MACLen  = 8  // MAC-A / MAC-S
	ResLen  = 8  // RES / XRES
	CKLen   = 16 // cipher key
	IKLen   = 16 // integrity key
	AKLen   = 6  // anonymity key
)

// Rotation and addition constants from TS 35.206 §4.1 (bit amounts; all are
// whole bytes so rotation is implemented byte-wise).
var (
	rotations = [5]int{8, 0, 4, 8, 12} // r1..r5 in bytes (64, 0, 32, 64, 96 bits)
	constants = [5]byte{0, 1, 2, 4, 8} // low byte of c1..c5; other bits zero
)

// Cipher evaluates the MILENAGE functions for one subscriber (K, OPc) pair:
// one expanded AES-128 key schedule of K and a copy of OPc. It is safe for
// concurrent use after construction.
type Cipher struct {
	block cipher.Block
	opc   [OPLen]byte
}

// New returns a Cipher for subscriber key k and the pre-computed OPc.
func New(k, opc []byte) (*Cipher, error) {
	c := new(Cipher)
	if err := c.Init(k, opc); err != nil {
		return nil, err
	}
	return c, nil
}

// Init builds c in place for subscriber key k and the pre-computed OPc. A
// Cipher declared on the caller's stack and built this way costs one heap
// allocation, the expanded key schedule, and is gone with the caller's
// frame: the eUDM builds one per AV request and one per pool refill, and
// keeps none between them.
func (c *Cipher) Init(k, opc []byte) error {
	if len(k) != KeyLen {
		return fmt.Errorf("milenage: key length %d, want %d", len(k), KeyLen)
	}
	if len(opc) != OPLen {
		return fmt.Errorf("milenage: OPc length %d, want %d", len(opc), OPLen)
	}
	block, err := aes.NewCipher(k)
	if err != nil {
		return fmt.Errorf("milenage: new AES cipher: %w", err)
	}
	c.block = block
	copy(c.opc[:], opc)
	return nil
}

// ComputeOPc derives OPc = E_K(OP) XOR OP (TS 35.206 §4.1).
func ComputeOPc(k, op []byte) ([]byte, error) {
	if len(k) != KeyLen {
		return nil, fmt.Errorf("milenage: key length %d, want %d", len(k), KeyLen)
	}
	if len(op) != OPLen {
		return nil, fmt.Errorf("milenage: OP length %d, want %d", len(op), OPLen)
	}
	block, err := aes.NewCipher(k)
	if err != nil {
		return nil, fmt.Errorf("milenage: new AES cipher: %w", err)
	}
	opc := make([]byte, OPLen)
	block.Encrypt(opc, op)
	xorInto(opc, op)
	return opc, nil
}

// scratch holds the intermediate AES blocks of one MILENAGE evaluation.
// The blocks live in a pooled struct rather than on the stack because
// cipher.Block's interface methods force their arguments to escape; with
// stack arrays every f1/f2345 call would heap-allocate its temporaries.
type scratch struct {
	in   [16]byte // E_K input being assembled
	temp [16]byte // TEMP = E_K(RAND XOR OPc)
	rot  [16]byte // rotated block
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// putScratch scrubs the intermediate blocks before recycling: TEMP and
// the rotation inputs are keyed intermediates (enough to reconstruct
// OUT-block inputs), and pooled memory must not retain them between
// evaluations — the same discipline hashpool.PutHMAC applies.
func putScratch(s *scratch) {
	*s = scratch{}
	scratchPool.Put(s)
}

// F1Star computes the resynchronisation authentication code MAC-S.
func (c *Cipher) F1Star(rand, sqn, amf []byte) ([]byte, error) {
	out := make([]byte, 16)
	if err := c.F1Into(out, rand, sqn, amf); err != nil {
		return nil, err
	}
	return out[MACLen:], nil
}

// F1Into computes the network authentication code MAC-A (TS 35.206 §4.1)
// as part of the full OUT1 block — MAC-A || MAC-S — into dst, which must
// hold exactly 16 bytes; MAC-A is dst[:MACLen], MAC-S is dst[MACLen:].
// Callers hold dst in pooled or batch-shared scratch (the eUDM AV mint,
// the UE's AKA run).
//
//shieldlint:hotpath
func (c *Cipher) F1Into(dst, rand, sqn, amf []byte) error {
	if len(dst) != 16 {
		return fmt.Errorf("milenage: OUT1 backing %d bytes, want 16", len(dst))
	}
	if err := checkLens(rand, sqn, amf); err != nil {
		return err
	}
	s := scratchPool.Get().(*scratch)
	c.tempInto(s, rand)

	// IN1 = SQN || AMF || SQN || AMF.
	copy(s.in[0:6], sqn)
	copy(s.in[6:8], amf)
	copy(s.in[8:14], sqn)
	copy(s.in[14:16], amf)

	// OUT1 = E_K(TEMP XOR rot(IN1 XOR OPc, r1) XOR c1) XOR OPc.
	xorInto(s.in[:], c.opc[:])
	rotateInto(&s.rot, &s.in, rotations[0])
	s.rot[15] ^= constants[0]
	xorInto(s.rot[:], s.temp[:])
	c.block.Encrypt(dst, s.rot[:])
	xorInto(dst, c.opc[:])
	putScratch(s)
	return nil
}

// F2345Into computes RES, CK, IK and AK from RAND in a single pass,
// matching the derivations the UDM performs when building an
// authentication vector. out must hold exactly 48 bytes and receives
// OUT2 || OUT3 || OUT4; the returned res/ck/ik/ak slices alias disjoint
// ranges of out. Callers recycling out through a pool must scrub it
// before returning it — CK, IK and AK are key material.
//
//shieldlint:hotpath
func (c *Cipher) F2345Into(out, rand []byte) (res, ck, ik, ak []byte, err error) {
	if len(out) != 48 {
		return nil, nil, nil, nil, fmt.Errorf("milenage: OUT2..4 backing %d bytes, want 48", len(out))
	}
	if len(rand) != RandLen {
		return nil, nil, nil, nil, fmt.Errorf("milenage: RAND length %d, want %d", len(rand), RandLen)
	}
	s := scratchPool.Get().(*scratch)
	c.tempInto(s, rand)
	c.outBlockInto(s, 1, out[0:16])
	c.outBlockInto(s, 2, out[16:32])
	c.outBlockInto(s, 3, out[32:48])
	putScratch(s)

	res = out[8:16:16] // OUT2[8:16]
	ak = out[0:AKLen:AKLen]
	ck = out[16:32:32]
	ik = out[32:48:48]
	return res, ck, ik, ak, nil
}

// F5Star computes the resynchronisation anonymity key AK*.
func (c *Cipher) F5Star(rand []byte) ([]byte, error) {
	if len(rand) != RandLen {
		return nil, fmt.Errorf("milenage: RAND length %d, want %d", len(rand), RandLen)
	}
	s := scratchPool.Get().(*scratch)
	c.tempInto(s, rand)
	out := make([]byte, 16)
	c.outBlockInto(s, 4, out)
	putScratch(s)
	return out[0:AKLen], nil
}

// tempInto computes TEMP = E_K(RAND XOR OPc) into s.temp.
func (c *Cipher) tempInto(s *scratch, rand []byte) {
	copy(s.in[:], rand)
	xorInto(s.in[:], c.opc[:])
	c.block.Encrypt(s.temp[:], s.in[:])
}

// outBlockInto computes OUT_n = E_K(rot(TEMP XOR OPc, r_n) XOR c_n) XOR OPc
// for n in {2..5}, indexed 1..4 into the constant tables, writing the
// 16-byte result into dst.
func (c *Cipher) outBlockInto(s *scratch, idx int, dst []byte) {
	copy(s.in[:], s.temp[:])
	xorInto(s.in[:], c.opc[:])
	rotateInto(&s.rot, &s.in, rotations[idx])
	s.rot[15] ^= constants[idx]
	c.block.Encrypt(dst, s.rot[:])
	xorInto(dst, c.opc[:])
}

// rotateInto writes src cyclically rotated left by n bytes into dst.
func rotateInto(dst, src *[16]byte, n int) {
	for i := range dst {
		dst[i] = src[(i+n)%16]
	}
}

// xorInto xors src into dst in place.
func xorInto(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

func checkLens(rand, sqn, amf []byte) error {
	if len(rand) != RandLen {
		return fmt.Errorf("milenage: RAND length %d, want %d", len(rand), RandLen)
	}
	if len(sqn) != SQNLen {
		return fmt.Errorf("milenage: SQN length %d, want %d", len(sqn), SQNLen)
	}
	if len(amf) != AMFLen {
		return fmt.Errorf("milenage: AMF length %d, want %d", len(amf), AMFLen)
	}
	return nil
}
