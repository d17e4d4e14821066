package amf

// GUTIBindings is the number of TMSIs the instance still resolves.
func (a *AMF) GUTIBindings() int { return a.guti.Len() }

// HoldsNASCipher reports whether a UE context's NAS security context holds
// an expanded K_NASenc schedule. ok is false when the AMF has no such
// context or the context has no NAS security yet.
func (a *AMF) HoldsNASCipher(ranUEID uint64) (held, ok bool) {
	ue, ok := a.ues.Load(ranUEID)
	if !ok || ue.sec == nil {
		return false, false
	}
	return ue.sec.HoldsCipher(), true
}

// AKAState names the AKA-run fields a UE context still holds: the
// challenge's RAND and HXRES*, the AUSF auth-context ID and the request
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
	if ue.authCtxID != "" {
		held = append(held, "authCtxID")
	}
	if ue.pendingAuth != nil {
		held = append(held, "pendingAuth")
	}
	return held, true
}
