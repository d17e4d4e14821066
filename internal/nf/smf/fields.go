package smf

// Field descriptions of the SMF messages (see codec.Message).

import "shield5g/internal/sbi/codec"

// Fields implements codec.Message.
func (m *CreateSessionRequest) Fields(f *codec.Fields) {
	f.Ident("supi", &m.SUPI)
	f.Byte("session_id", &m.SessionID)
	f.String("dnn", &m.DNN, 0)
}

// Fields implements codec.Message.
func (m *CreateSessionResponse) Fields(f *codec.Fields) {
	f.Addr("ue_address", &m.UEAddress)
	codec.Uint(f, "teid", &m.TEID)
}

// Fields implements codec.Message.
func (m *ReleaseSessionRequest) Fields(f *codec.Fields) {
	f.Ident("supi", &m.SUPI)
	f.Byte("session_id", &m.SessionID)
}

// Fields implements codec.Message.
func (m *Empty) Fields(*codec.Fields) {}
