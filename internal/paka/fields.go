package paka

// Field descriptions of the P-AKA module messages (see codec.Message).
// Request types are decoded under the HandlerFunc loan and leave their
// byte strings as views; response types mark theirs Own, mirroring the
// single-backing layout GenerateAV already uses.

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
func (m *UDMGenerateAVResponse) Fields(f *codec.Fields) {
	f.Bytes("rand", &m.RAND, codec.Own)
	f.Bytes("autn", &m.AUTN, codec.Own)
	f.Bytes("xres_star", &m.XRESStar, codec.Own)
	f.Bytes("kausf", &m.KAUSF, codec.Own)
}

// Fields implements codec.Message.
func (m *UDMGenerateAVBatchRequest) Fields(f *codec.Fields) {
	codec.List(f, "items", &m.Items)
}

// Fields implements codec.Message.
func (m *UDMGenerateAVBatchResponse) Fields(f *codec.Fields) {
	codec.List(f, "vectors", &m.Vectors)
}

// Fields implements codec.Message.
func (m *UDMResyncRequest) Fields(f *codec.Fields) {
	f.String("supi", &m.SUPI, 0)
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
	f.Bytes("rand", &m.RAND, 0)
	f.Bytes("xres_star", &m.XRESStar, 0)
	f.Bytes("kausf", &m.KAUSF, 0)
	f.String("snn", &m.SNN, codec.Intern)
}

// Fields implements codec.Message.
func (m *AUSFDeriveSEResponse) Fields(f *codec.Fields) {
	f.Bytes("hxres_star", &m.HXRESStar, codec.Own)
	f.Bytes("kseaf", &m.KSEAF, codec.Own)
}

// Fields implements codec.Message.
func (m *AMFDeriveKAMFRequest) Fields(f *codec.Fields) {
	f.Bytes("kseaf", &m.KSEAF, 0)
	f.String("supi", &m.SUPI, 0)
	f.Bytes("abba", &m.ABBA, 0)
}

// Fields implements codec.Message.
func (m *AMFDeriveKAMFResponse) Fields(f *codec.Fields) {
	f.Bytes("kamf", &m.KAMF, codec.Own)
}
