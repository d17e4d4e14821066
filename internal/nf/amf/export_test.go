package amf

import (
	"unsafe"

	"shield5g/internal/sbi/codec"
)

// UEContextSize is the size of the AMF's per-UE context.
const UEContextSize = unsafe.Sizeof(ueContext{})

// GUTIBindings is the number of TMSIs the instance still resolves.
func (a *AMF) GUTIBindings() int { return a.guti.Len() }

// HoldsNASCipher reports whether a UE context's NAS security context holds
// an expanded K_NASenc schedule. ok is false when the AMF has no such
// context or the context has no NAS security yet.
func (a *AMF) HoldsNASCipher(ranUEID uint64) (held, ok bool) {
	ue, ok := a.ues.Load(ranUEID)
	if !ok || !ue.sec.Active() {
		return false, false
	}
	return ue.sec.HoldsCipher(), true
}

// AKAState names the AKA-run fields a UE context still holds: the
// challenge's RAND and HXRES*, the AUSF auth-context ID and the SUCI
// the run started from. ok is false when the AMF has no such context.
func (a *AMF) AKAState(ranUEID uint64) (held []string, ok bool) {
	ue, ok := a.ues.Load(ranUEID)
	if !ok {
		return nil, false
	}
	if ue.rand != [16]byte{} {
		held = append(held, "rand")
	}
	if ue.hxresStar != [16]byte{} {
		held = append(held, "hxresStar")
	}
	if ue.authCtxID != (codec.AuthCtxID{}) {
		held = append(held, "authCtxID")
	}
	if ue.suci != nil {
		held = append(held, "suci")
	}
	return held, true
}
