package nas

import (
	"sync"

	"shield5g/internal/race"
)

// PDU ownership. Encode and SecurityContext.Protect write their output
// into a fixed-size array drawn from pduPool, and the returned PDU has
// exactly one owner at a time. Handing it to a receiver (amf.HandleInitialUE,
// amf.HandleUplinkNAS, ue.HandleDownlinkNAS) hands over ownership: the
// receiver calls Release once the message is decoded, on every path, and
// the sender must not touch the bytes afterwards. Decode, DecodeInto,
// Unprotect and UnprotectInto copy every field out and never release, so
// a caller that keeps a PDU may decode it as often as it likes.

// pduCap is the capacity of a pooled PDU: the largest message of the
// registration path, a RegistrationRequest with an ECIES SUCI, encodes
// to about 75 bytes, and 112 is the size class above it. A message that
// outgrows it (a long DNN) gets an array of its own, which Release
// ignores.
const pduCap = 112

var pduPool = sync.Pool{New: func() any {
	p := new([pduCap]byte)
	if auditPDUs {
		// A new array enters the pool the way a released one does.
		poisonPDU(p)
	}
	return p
}}

// newPDU draws an empty PDU with capacity pduCap from the pool.
func newPDU() []byte {
	p := pduPool.Get().(*[pduCap]byte)
	if auditPDUs {
		auditDraw(p)
	}
	return p[:0]
}

// settle returns out, the encoding built on the pooled buf, and puts
// buf's array back when out does not live in it: the encoding failed
// (out is nil) or outgrew pduCap.
func settle(buf, out []byte) []byte {
	if cap(out) != pduCap {
		Release(buf)
	}
	return out
}

// Release hands a PDU that Encode or Protect returned back to the pool.
// The caller must be its owner and must not touch it afterwards. A slice
// whose capacity is not pduCap did not come from the pool and is ignored.
func Release(pdu []byte) {
	if cap(pdu) != pduCap {
		return
	}
	p := (*[pduCap]byte)(pdu[:pduCap])
	if auditPDUs {
		auditRelease(p)
	}
	pduPool.Put(p)
}

// The PDU audit checks the single-owner rule on the executions the tests
// run, as internal/sbi's body-pool audit does: on in every -race build
// and in this package's own test binary (export_test.go), off elsewhere.
// Release fills the array with poisonByte and the next draw requires it
// to be all poison still, so a write through a PDU kept after its
// release panics there, a second release panics at once, and a read of a
// released PDU decodes poison. A PDU in use is never all poison: its
// first byte is EPD5GMM, and a draw zeroes the array.
var auditPDUs = race.Enabled

const poisonByte = 0xDB

func auditRelease(p *[pduCap]byte) {
	if allPoison(p) {
		panic("nas: PDU released twice")
	}
	poisonPDU(p)
}

func auditDraw(p *[pduCap]byte) {
	if !allPoison(p) {
		panic("nas: pooled PDU written after release")
	}
	clear(p[:])
}

func poisonPDU(p *[pduCap]byte) {
	for i := range p {
		p[i] = poisonByte
	}
}

func allPoison(p *[pduCap]byte) bool {
	for _, c := range p {
		if c != poisonByte {
			return false
		}
	}
	return true
}
