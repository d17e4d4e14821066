package suci

import "shield5g/internal/sbi/codec"

// Fields implements codec.Message for the SUCI nested in the UDM and AUSF
// authentication requests; the struct has no json tags, so the names are
// the Go field names. SchemeOutput is Own even inside a request: a decoded
// SUCI outlives the transport body (the AUSF stores it in its session,
// the UDM hands it to deconcealment).
func (s *SUCI) Fields(f *codec.Fields) {
	f.String("MCC", &s.MCC, codec.Intern)
	f.String("MNC", &s.MNC, codec.Intern)
	f.String("RoutingIndicator", &s.RoutingIndicator, codec.Intern)
	f.Byte("Scheme", &s.Scheme)
	f.Byte("HomeKeyID", &s.HomeKeyID)
	f.Bytes("SchemeOutput", &s.SchemeOutput, codec.Own)
}
