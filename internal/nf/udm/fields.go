package udm

// Field descriptions of the UDM messages (see codec.Message).

import "shield5g/internal/sbi/codec"

// Fields implements codec.Message. A SUCI is decoded into the kept one
// when there is one.
func (m *GenerateAuthDataRequest) Fields(f *codec.Fields) {
	codec.KeptPtr(f, "suci", &m.SUCI, codec.OmitEmpty, &m.kept)
	f.String("supi", &m.SUPI, codec.OmitEmpty)
	f.String("serving_network_name", &m.ServingNetworkName, codec.Intern)
}

// Scrub readies the message for its served pair's next request: the SUCI the request held is zeroed
// and kept for the next one, and the request reads as a zero one, SUCI
// nil included.
func (m *GenerateAuthDataRequest) Scrub() {
	m.kept.KeepOne(m.SUCI)
	*m = GenerateAuthDataRequest{kept: m.kept}
}

// Fields implements codec.Message: the AUSF retains the HE AV in its
// session.
func (m *GenerateAuthDataResponse) Fields(f *codec.Fields) {
	f.Ident("supi", &m.SUPI)
	f.Fixed("rand", m.RAND[:])
	f.Fixed("autn", m.AUTN[:])
	f.Fixed("xres_star", m.XRESStar[:])
	f.Fixed("kausf", m.KAUSF[:])
}

// Fields implements codec.Message (handleResync forwards the views within
// the call).
func (m *ResyncRequest) Fields(f *codec.Fields) {
	f.Ident("supi", &m.SUPI)
	f.Bytes("rand", &m.RAND, 0)
	f.Bytes("auts", &m.AUTS, 0)
}

// Fields implements codec.Message.
func (m *Empty) Fields(*codec.Fields) {}
