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
	f.String("auth_ctx_id", &m.AuthCtxID, 0)
	f.Bytes("rand", &m.RAND, codec.Own)
	f.Bytes("autn", &m.AUTN, codec.Own)
	f.Bytes("hxres_star", &m.HXRESStar, codec.Own)
}

// Fields implements codec.Message (the handler only compares RES* within
// the call).
func (m *ConfirmRequest) Fields(f *codec.Fields) {
	f.String("auth_ctx_id", &m.AuthCtxID, 0)
	f.Bytes("res_star", &m.ResStar, 0)
}

// Fields implements codec.Message: the serving network retains K_SEAF.
func (m *ConfirmResponse) Fields(f *codec.Fields) {
	f.String("supi", &m.SUPI, 0)
	f.Bytes("kseaf", &m.KSEAF, codec.Own)
}

// Fields implements codec.Message (AUTS is forwarded within the call).
func (m *ResyncRequest) Fields(f *codec.Fields) {
	f.String("auth_ctx_id", &m.AuthCtxID, 0)
	f.Bytes("auts", &m.AUTS, 0)
}
