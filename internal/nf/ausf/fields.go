package ausf

// Field descriptions of the AUSF messages (see codec.Message).

import "shield5g/internal/sbi/codec"

// Fields implements codec.Message.
func (m *AuthenticateRequest) Fields(f *codec.Fields) {
	codec.Ptr(f, "suci", &m.SUCI, codec.OmitEmpty)
	f.String("supi", &m.SUPI, codec.OmitEmpty)
	f.String("serving_network_name", &m.ServingNetworkName, codec.Intern)
}

// Fields implements codec.Message: the AMF keeps the challenge in its UE
// context.
func (m *AuthenticateResponse) Fields(f *codec.Fields) {
	f.Ident("auth_ctx_id", &m.AuthCtxID)
	f.Fixed("rand", m.RAND[:])
	f.Fixed("autn", m.AUTN[:])
	f.Fixed("hxres_star", m.HXRESStar[:])
}

// Fields implements codec.Message: RES* is decoded in place.
func (m *ConfirmRequest) Fields(f *codec.Fields) {
	f.Ident("auth_ctx_id", &m.AuthCtxID)
	f.Fixed("res_star", m.ResStar[:])
}

// Fields implements codec.Message: the serving network retains K_SEAF.
func (m *ConfirmResponse) Fields(f *codec.Fields) {
	f.Ident("supi", &m.SUPI)
	f.Fixed("kseaf", m.KSEAF[:])
}

// Fields implements codec.Message (AUTS is forwarded within the call).
func (m *ResyncRequest) Fields(f *codec.Fields) {
	f.Ident("auth_ctx_id", &m.AuthCtxID)
	f.Bytes("auts", &m.AUTS, 0)
}
