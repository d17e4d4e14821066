package paka

// Field descriptions of the P-AKA module messages (see codec.Message).
// Request types are decoded under the HandlerFunc loan and leave their
// variable-length byte strings as views; the Table I values are
// fixed-width and decode in place in either direction.

import "shield5g/internal/sbi/codec"

// Fields implements codec.Message.
func (m *UDMGenerateAVRequest) Fields(f *codec.Fields) {
	f.String("supi", &m.SUPI, 0)
	f.Bytes("opc", &m.OPc, 0)
	f.Bytes("rand", &m.RAND, 0)
	f.Bytes("sqn", &m.SQN, 0)
	f.Bytes("amfid", &m.AMFID, 0)
	f.String("snn", &m.SNN, codec.Intern)
}

// Fields implements codec.Message.
func (m *UDMGenerateAVItem) Fields(f *codec.Fields) {
	f.Ident("supi", &m.SUPI)
	f.Bytes("opc", &m.OPc, 0)
	f.Bytes("rand", &m.RAND, 0)
	f.Bytes("sqn", &m.SQN, 0)
	f.Bytes("amfid", &m.AMFID, 0)
	f.String("snn", &m.SNN, codec.Intern)
}

// Fields implements codec.Message.
func (m *UDMGenerateAVResponse) Fields(f *codec.Fields) {
	f.Fixed("rand", m.RAND[:])
	f.Fixed("autn", m.AUTN[:])
	f.Fixed("xres_star", m.XRESStar[:])
	f.Fixed("kausf", m.KAUSF[:])
}

// Fields implements codec.Message. The items are decoded into the kept
// backing when there is one.
func (m *UDMGenerateAVBatchRequest) Fields(f *codec.Fields) {
	codec.KeptList(f, "items", &m.Items, &m.items)
}

// Scrub readies the message for its served pair's next request: the items' backing — their SUPIs and
// their byte strings — is cleared and kept for the next batch.
func (m *UDMGenerateAVBatchRequest) Scrub() {
	m.items.Keep(m.Items)
	*m = UDMGenerateAVBatchRequest{items: m.items}
}

// Fields implements codec.Message.
func (m *UDMGenerateAVBatchResponse) Fields(f *codec.Fields) {
	codec.List(f, "vectors", &m.Vectors)
}

// Scrub readies the message for its served pair's next request: the vectors' backing — every K_AUSF of
// the refill — is cleared and kept for the next one (GenerateAVBatch holds
// it).
func (m *UDMGenerateAVBatchResponse) Scrub() {
	m.vectors.Keep(nil)
	*m = UDMGenerateAVBatchResponse{vectors: m.vectors}
}

// Fields implements codec.Message.
func (m *UDMResyncRequest) Fields(f *codec.Fields) {
	f.Ident("supi", &m.SUPI)
	f.Bytes("opc", &m.OPc, 0)
	f.Bytes("rand", &m.RAND, 0)
	f.Bytes("auts", &m.AUTS, 0)
}

// Fields implements codec.Message.
func (m *UDMResyncResponse) Fields(f *codec.Fields) {
	f.Bytes("sqn_ms", &m.SQNMS, codec.Own)
}

// Fields implements codec.Message.
func (m *AUSFDeriveSERequest) Fields(f *codec.Fields) {
	f.Fixed("rand", m.RAND[:])
	f.Fixed("xres_star", m.XRESStar[:])
	f.Fixed("kausf", m.KAUSF[:])
	f.String("snn", &m.SNN, codec.Intern)
}

// Fields implements codec.Message.
func (m *AUSFDeriveSEResponse) Fields(f *codec.Fields) {
	f.Fixed("hxres_star", m.HXRESStar[:])
	f.Fixed("kseaf", m.KSEAF[:])
}

// Fields implements codec.Message.
func (m *AMFDeriveKAMFRequest) Fields(f *codec.Fields) {
	f.Fixed("kseaf", m.KSEAF[:])
	f.String("supi", &m.SUPI, 0)
	f.Bytes("abba", &m.ABBA, 0)
}

// Fields implements codec.Message.
func (m *AMFDeriveKAMFResponse) Fields(f *codec.Fields) {
	f.Fixed("kamf", m.KAMF[:])
}
