package amf

// GUTIBindings is the number of TMSIs the instance still resolves.
func (a *AMF) GUTIBindings() int { return a.guti.Len() }
