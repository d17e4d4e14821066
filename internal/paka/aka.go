package paka

import (
	"crypto/hmac"
	"errors"
	"fmt"
	"sync"

	"shield5g/internal/crypto/kdf"
	"shield5g/internal/crypto/milenage"
)

// avScratch holds the MILENAGE outputs of one AV mint: the OUT1 block
// (MAC-A || MAC-S) and the OUT2..4 backing that RES/CK/IK/AK alias.
// Pooling it keeps mintInto — the batch refill inner loop — free of
// per-mint output allocation.
type avScratch struct {
	out1 [16]byte
	out2 [48]byte
}

var avScratchPool = sync.Pool{New: func() any { return new(avScratch) }}

// putAVScratch scrubs before recycling: CK, IK and AK are key material
// and pooled memory must not carry them between mints — the same
// discipline milenage's own scratch pool and hashpool.PutHMAC apply.
func putAVScratch(s *avScratch) {
	*s = avScratch{}
	avScratchPool.Put(s)
}

// AKA errors.
var (
	// ErrUnknownSubscriber reports a SUPI with no provisioned key.
	ErrUnknownSubscriber = errors.New("paka: unknown subscriber")
	// ErrResyncMAC reports an AUTS whose MAC-S does not verify.
	ErrResyncMAC = errors.New("paka: AUTS MAC-S verification failed")
)

// GenerateAV executes the eUDM P-AKA function set: MILENAGE f1 and f2345
// over the subscriber key, AUTN assembly, and the XRES*/K_AUSF derivations
// (the "Derive/Execute" column of Table I for the eUDM module). K's key
// schedule is expanded for this one call.
func GenerateAV(k []byte, req *UDMGenerateAVRequest) (*UDMGenerateAVResponse, error) {
	var c milenage.Cipher
	if err := c.Init(k, req.OPc); err != nil {
		return nil, fmt.Errorf("paka: eUDM: %w", err)
	}
	resp := new(UDMGenerateAVResponse)
	if err := mintInto(&c, req.RAND, req.SQN, req.AMFID, req.SNN, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// AVBackingBytes is the combined size of one AV's four response fields
// (RAND 16 || AUTN 16 || XRES* 16 || K_AUSF 32).
const AVBackingBytes = 80

// AVInto reads an AV laid out as RAND‖AUTN‖XRES*‖K_AUSF from buf, which
// must be AVBackingBytes long, into resp. Nothing in the core calls it
// since the response holds its fields in place; bench/ and tests still
// build vectors with it.
func AVInto(buf []byte, resp *UDMGenerateAVResponse) {
	copy(resp.RAND[:], buf[0:16])
	copy(resp.AUTN[:], buf[16:32])
	copy(resp.XRESStar[:], buf[32:48])
	copy(resp.KAUSF[:], buf[48:80])
}

// GenerateAVCachedInto is the AV mint over a schedule looked up in cache
// (built on a miss) instead of expanded for the call, written into resp.
// The core keeps no cache; this measures what one would save.
func GenerateAVCachedInto(cache *milenage.Cache, k []byte, req *UDMGenerateAVRequest, resp *UDMGenerateAVResponse) error {
	c, err := cache.Get(req.SUPI, k, req.OPc)
	if err != nil {
		return fmt.Errorf("paka: eUDM: %w", err)
	}
	return mintInto(c, req.RAND, req.SQN, req.AMFID, req.SNN, resp)
}

// mintInto derives an AV from one vector's Table I inputs with c, the
// subscriber's expanded schedule, straight into resp's fields: a served
// request's pooled response, or one vector of a batch refill's.
func mintInto(c *milenage.Cipher, rand, sqn, amfID []byte, snn string, resp *UDMGenerateAVResponse) error {
	s := avScratchPool.Get().(*avScratch)
	defer putAVScratch(s)
	if err := c.F1Into(s.out1[:], rand, sqn, amfID); err != nil {
		return fmt.Errorf("paka: eUDM f1: %w", err)
	}
	res, ck, ik, ak, err := c.F2345Into(s.out2[:], rand)
	if err != nil {
		return fmt.Errorf("paka: eUDM f2345: %w", err)
	}
	copy(resp.RAND[:], rand)

	// AUTN = (SQN XOR AK) || AMF || MAC-A, assembled in place. F1Into has
	// already validated the SQN and AMF lengths; AK is always 6 bytes.
	sqnAK := resp.AUTN[0:6]
	for i := range sqnAK {
		sqnAK[i] = sqn[i] ^ ak[i]
	}
	copy(resp.AUTN[6:8], amfID)
	copy(resp.AUTN[8:16], s.out1[:milenage.MACLen])

	if err := kdf.ResStarInto(resp.XRESStar[:], ck, ik, snn, rand, res); err != nil {
		return fmt.Errorf("paka: eUDM XRES*: %w", err)
	}
	if err := kdf.KAUSFInto(resp.KAUSF[:], ck, ik, snn, sqnAK); err != nil {
		return fmt.Errorf("paka: eUDM K_AUSF: %w", err)
	}
	return nil
}

// resync executes the eUDM-side AUTS verification (TS 33.102 §6.3.5): with
// c, the subscriber's expanded schedule, it recovers SQN_MS with AK* =
// f5*(RAND), checks MAC-S = f1*(SQN_MS, AMF*=0x0000) and writes SQN_MS into
// resp. It uses the long-term key and therefore runs inside the enclave.
func resync(c *milenage.Cipher, req *UDMResyncRequest, resp *UDMResyncResponse) error {
	if len(req.AUTS) != 14 {
		return fmt.Errorf("paka: AUTS length %d, want 14", len(req.AUTS))
	}
	akStar, err := c.F5Star(req.RAND)
	if err != nil {
		return fmt.Errorf("paka: eUDM f5*: %w", err)
	}
	concealed := req.AUTS[:6]
	macS := req.AUTS[6:]
	sqnMS, err := kdf.XorSQNAK(concealed, akStar)
	if err != nil {
		return fmt.Errorf("paka: eUDM resync: %w", err)
	}
	// The resynchronisation AMF is all-zero (TS 33.102 §6.3.3).
	wantMAC, err := c.F1Star(req.RAND, sqnMS, []byte{0x00, 0x00})
	if err != nil {
		return fmt.Errorf("paka: eUDM f1*: %w", err)
	}
	if !hmac.Equal(macS, wantMAC) {
		return ErrResyncMAC
	}
	resp.SQNMS = sqnMS
	return nil
}

// DeriveSE executes the eAUSF P-AKA function set: HXRES* hashing and
// K_SEAF derivation.
func DeriveSE(req *AUSFDeriveSERequest) (*AUSFDeriveSEResponse, error) {
	resp := new(AUSFDeriveSEResponse)
	if err := deriveSE(req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// deriveSE derives HXRES* and K_SEAF straight into resp.
func deriveSE(req *AUSFDeriveSERequest, resp *AUSFDeriveSEResponse) error {
	if err := kdf.HXResStarInto(resp.HXRESStar[:], req.RAND[:], req.XRESStar[:]); err != nil {
		return fmt.Errorf("paka: eAUSF HXRES*: %w", err)
	}
	if err := kdf.KSEAFInto(resp.KSEAF[:], req.KAUSF[:], req.SNN); err != nil {
		return fmt.Errorf("paka: eAUSF K_SEAF: %w", err)
	}
	return nil
}

// deriveKAMF executes the eAMF P-AKA function: K_AMF derivation from
// K_SEAF, straight into resp.
func deriveKAMF(req *AMFDeriveKAMFRequest, resp *AMFDeriveKAMFResponse) error {
	if err := kdf.KAMFInto(resp.KAMF[:], req.KSEAF[:], req.SUPI, req.ABBA); err != nil {
		return fmt.Errorf("paka: eAMF K_AMF: %w", err)
	}
	return nil
}
