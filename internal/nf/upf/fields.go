package upf

// Field descriptions of the UPF's N4 messages (see codec.Message).

import "shield5g/internal/sbi/codec"

// Fields implements codec.Message.
func (m *EstablishRequest) Fields(f *codec.Fields) {
	codec.Uint(f, "seid", &m.SEID)
	f.Addr("ue_address", &m.UEAddress)
}

// Fields implements codec.Message.
func (m *EstablishResponse) Fields(f *codec.Fields) { codec.Uint(f, "teid", &m.TEID) }

// Fields implements codec.Message.
func (m *ReleaseRequest) Fields(f *codec.Fields) { codec.Uint(f, "seid", &m.SEID) }

// Fields implements codec.Message.
func (m *Empty) Fields(*codec.Fields) {}
