package suci

import "shield5g/internal/sbi/codec"

// Fields implements codec.Message for the SUCI nested in the UDM and AUSF
// authentication requests; the struct has no json tags, so the names are
// the Go field names. SchemeOutput is a view into the body, like every
// byte string of a request: both handlers read it under the loan (the
// AUSF forwards it in its post to the UDM, the UDM de-conceals it into a
// SUPI of its own) and neither keeps it past the answer.
func (s *SUCI) Fields(f *codec.Fields) {
	f.String("MCC", &s.MCC, codec.Intern)
	f.String("MNC", &s.MNC, codec.Intern)
	f.String("RoutingIndicator", &s.RoutingIndicator, codec.Intern)
	f.Byte("Scheme", &s.Scheme)
	f.Byte("HomeKeyID", &s.HomeKeyID)
	f.Bytes("SchemeOutput", &s.SchemeOutput, 0)
}
