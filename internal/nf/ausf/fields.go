package ausf

// Field descriptions of the AUSF messages (see codec.Message).

import "shield5g/internal/sbi/codec"

// Fields implements codec.Message. A SUCI is decoded into the kept one
// when there is one.
func (m *AuthenticateRequest) Fields(f *codec.Fields) {
	codec.KeptPtr(f, "suci", &m.SUCI, codec.OmitEmpty, &m.kept)
	f.String("supi", &m.SUPI, codec.OmitEmpty)
	f.String("serving_network_name", &m.ServingNetworkName, codec.Intern)
}

// Scrub readies the message for its served pair's next request: the SUCI the request held is zeroed
// and kept for the next one, and the request reads as a zero one, SUCI
// nil included.
func (m *AuthenticateRequest) Scrub() {
	m.kept.KeepOne(m.SUCI)
	*m = AuthenticateRequest{kept: m.kept}
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
