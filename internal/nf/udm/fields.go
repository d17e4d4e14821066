package udm

// Field descriptions of the UDM messages (see codec.Message).

import "shield5g/internal/sbi/codec"

// Fields implements codec.Message.
func (m *GenerateAuthDataRequest) Fields(f *codec.Fields) {
	codec.Ptr(f, "suci", &m.SUCI, codec.OmitEmpty)
	f.String("supi", &m.SUPI, codec.OmitEmpty)
	f.String("serving_network_name", &m.ServingNetworkName, codec.Intern)
}

// Fields implements codec.Message: the AUSF retains the HE AV in its
// session.
func (m *GenerateAuthDataResponse) Fields(f *codec.Fields) {
	f.String("supi", &m.SUPI, 0)
	f.Bytes("rand", &m.RAND, codec.Own)
	f.Bytes("autn", &m.AUTN, codec.Own)
	f.Bytes("xres_star", &m.XRESStar, codec.Own)
	f.Bytes("kausf", &m.KAUSF, codec.Own)
}

// Fields implements codec.Message (handleResync forwards the views within
// the call).
func (m *ResyncRequest) Fields(f *codec.Fields) {
	f.String("supi", &m.SUPI, 0)
	f.Bytes("rand", &m.RAND, 0)
	f.Bytes("auts", &m.AUTS, 0)
}

// Fields implements codec.Message.
func (m *Empty) Fields(*codec.Fields) {}
