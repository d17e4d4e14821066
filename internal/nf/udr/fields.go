package udr

// Field descriptions of the UDR messages (see codec.Message). Every UDR
// handler copies what it stores, so request byte strings stay views.

import "shield5g/internal/sbi/codec"

// Fields implements codec.Message. Whether the byte strings are views or
// owned is the enclosing message's call: ProvisionRequest is handled
// under the loan, GetResponse is kept by the caller.
func (s *Subscriber) Fields(f *codec.Fields) {
	f.Ident("supi", &s.SUPI)
	f.Bytes("k", &s.K, 0)
	f.Bytes("opc", &s.OPc, 0)
	f.Bytes("sqn", &s.SQN, 0)
	f.Bytes("amf_field", &s.AMFField, 0)
}

// Fields implements codec.Message.
func (m *ProvisionRequest) Fields(f *codec.Fields) {
	f.Struct("subscriber", &m.Subscriber, 0)
}

// Fields implements codec.Message.
func (m *Empty) Fields(*codec.Fields) {}

// Fields implements codec.Message.
func (m *NextAuthRequest) Fields(f *codec.Fields) {
	f.Ident("supi", &m.SUPI)
}

// Fields implements codec.Message (the same one-backing layout
// handleNextAuth builds).
func (m *NextAuthResponse) Fields(f *codec.Fields) {
	f.Bytes("opc", &m.OPc, codec.Own)
	f.Bytes("sqn", &m.SQN, codec.Own)
	f.Bytes("amf_field", &m.AMFField, codec.Own)
}

// Scrub readies the message for its served pair's next request: the backing handleNextAuth filled, OPc
// included, is cleared and kept for the next answer.
func (m *NextAuthResponse) Scrub() {
	m.backing.Keep(nil)
	*m = NextAuthResponse{backing: m.backing}
}

// Fields implements codec.Message; the handler enforces Count's
// [1, maxNextAuthBatch] bound.
func (m *NextAuthBatchRequest) Fields(f *codec.Fields) {
	f.Ident("supi", &m.SUPI)
	codec.Int(f, "count", &m.Count, 0)
}

// Fields implements codec.Message.
func (m *NextAuthBatchResponse) Fields(f *codec.Fields) {
	f.Bytes("opc", &m.OPc, codec.Own)
	f.Bytes("amf_field", &m.AMFField, codec.Own)
	f.Bytes("sqns", &m.SQNs, codec.Own)
}

// Scrub readies the message for its served pair's next request: the backing handleNextAuthBatch
// filled, OPc included, is cleared and kept for the next answer.
func (m *NextAuthBatchResponse) Scrub() {
	m.backing.Keep(nil)
	*m = NextAuthBatchResponse{backing: m.backing}
}

// Fields implements codec.Message.
func (m *ResyncRequest) Fields(f *codec.Fields) {
	f.Ident("supi", &m.SUPI)
	f.Bytes("sqn_ms", &m.SQNMS, 0)
}

// Fields implements codec.Message.
func (m *GetRequest) Fields(f *codec.Fields) {
	f.Ident("supi", &m.SUPI)
}

// Fields implements codec.Message.
func (m *GetResponse) Fields(f *codec.Fields) {
	f.Struct("subscriber", &m.Subscriber, codec.Own)
}
