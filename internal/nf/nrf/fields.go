package nrf

// Field descriptions of the NRF messages (see codec.Message).

import "shield5g/internal/sbi/codec"

// Fields implements codec.Message.
func (m *NFProfile) Fields(f *codec.Fields) {
	f.String("instance_id", &m.InstanceID, 0)
	f.String("nf_type", &m.NFType, 0)
	f.String("service", &m.Service, 0)
	f.Bool("hmee", &m.HMEE, 0)
}

// Fields implements codec.Message.
func (m *RegisterRequest) Fields(f *codec.Fields) { f.Struct("profile", &m.Profile, 0) }

// Fields implements codec.Message.
func (m *RegisterResponse) Fields(f *codec.Fields) {
	codec.Int(f, "heartbeat_seconds", &m.HeartbeatSeconds, 0)
}

// Fields implements codec.Message.
func (m *DiscoverRequest) Fields(f *codec.Fields) {
	f.String("nf_type", &m.NFType, 0)
	f.Bool("require_hmee", &m.RequireHMEE, codec.OmitEmpty)
}

// Fields implements codec.Message.
func (m *DiscoverResponse) Fields(f *codec.Fields) { codec.List(f, "profiles", &m.Profiles) }
