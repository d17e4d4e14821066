package nas

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"shield5g/internal/crypto/suci"
)

// Property: Decode never panics on arbitrary byte strings — it either
// parses a message or returns an error. NAS parsers face attacker-chosen
// input at the network edge.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %x: %v", data, r)
			}
		}()
		msg, err := Decode(data)
		return (msg != nil) != (err != nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Decode on well-formed prefixes with flipped bytes still never
// panics (more likely to reach deep field parsing than pure noise).
func TestDecodeMutatedMessagesNeverPanic(t *testing.T) {
	seed, err := Encode(&RegistrationRequest{
		RegistrationType: RegistrationInitial,
		Identity:         MobileIdentity{GUTI: &GUTI{MCC: "001", MNC: "01", TMSI: 7}},
		Capabilities:     []byte{1, 2, 3},
	})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	f := func(pos uint16, val byte, trunc uint8) bool {
		data := append([]byte(nil), seed...)
		data[int(pos)%len(data)] ^= val
		if int(trunc) < len(data) {
			data = data[:len(data)-int(trunc)%len(data)]
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %x: %v", data, r)
			}
		}()
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// FuzzNASDecode feeds the plain NAS decoder hostile bytes, seeded with one
// of every message the registration flow encodes — UE uplink, AMF
// downlink and the plain bodies Protect wraps, with both identity forms
// and both failure causes (testdata/fuzz/FuzzNASDecode holds the same
// encodings frozen, so this codec's wire bytes stay regression inputs if
// it changes). Decode must never panic, and a message it accepts must
// re-encode without error and decode back to itself.
func FuzzNASDecode(f *testing.F) {
	guti := GUTI{MCC: "001", MNC: "01", AMFRegionID: 0xCA, AMFSetID: 0x3FE, AMFPointer: 0x3F, TMSI: 0xDEADBEEF}
	for _, m := range []Message{
		&RegistrationRequest{RegistrationType: RegistrationInitial, Identity: MobileIdentity{SUCI: &suci.SUCI{
			MCC: "001", MNC: "01", RoutingIndicator: "0000", Scheme: suci.SchemeProfileA, HomeKeyID: 1,
			SchemeOutput: bytes.Repeat([]byte{0xA5}, 45),
		}}, Capabilities: []byte{AlgNEA2, AlgNIA2}},
		&RegistrationRequest{RegistrationType: RegistrationMobility, Identity: MobileIdentity{GUTI: &guti}, Capabilities: []byte{AlgNEA2, AlgNIA2}},
		&IdentityRequest{IdentityType: IdentityTypeSUCI},
		&IdentityResponse{Identity: MobileIdentity{SUCI: &suci.SUCI{
			MCC: "001", MNC: "01", RoutingIndicator: "0000", Scheme: suci.SchemeNull, SchemeOutput: []byte("0000000001"),
		}}},
		&AuthenticationRequest{ABBA: []byte{0, 0}, RAND: [16]byte{1, 2, 3}, AUTN: [16]byte{4, 5, 6}},
		&AuthenticationResponse{ResStar: [16]byte{7, 8, 9}},
		&AuthenticationFailure{Cause: CauseMACFailure},
		&AuthenticationFailure{Cause: CauseSyncFailure, AUTS: bytes.Repeat([]byte{0x5C}, 14)},
		&AuthenticationReject{},
		&SecurityModeCommand{IntegrityAlg: AlgNIA2, CipheringAlg: AlgNEA2},
		&SecurityModeComplete{},
		&RegistrationAccept{GUTI: guti},
		&RegistrationComplete{},
		&PDUSessionEstablishmentRequest{SessionID: 1, DNN: "internet"},
		&PDUSessionEstablishmentAccept{SessionID: 1, UEAddress: "10.45.0.2"},
		&DeregistrationRequest{},
	} {
		seed, err := Encode(m)
		if err != nil {
			f.Fatalf("Encode(%s): %v", m.Type(), err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			if m != nil {
				t.Fatalf("Decode returned a %s alongside error %v", m.Type(), err)
			}
			return
		}
		enc, err := Encode(m)
		if err != nil {
			t.Fatalf("decoded %s does not re-encode: %v", m.Type(), err)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", m.Type(), err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("%s changed across Encode -> Decode:\n%#v\nvs\n%#v", m.Type(), m, back)
		}
	})
}

// Property: Unprotect never panics on arbitrary input and never yields a
// message for forged bytes.
func TestUnprotectNeverPanicsOrForges(t *testing.T) {
	sc, err := NewSecurityContext(bytes.Repeat([]byte{0x42}, 32))
	if err != nil {
		t.Fatalf("NewSecurityContext: %v", err)
	}
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Unprotect panicked on %x: %v", data, r)
			}
		}()
		msg, err := sc.Unprotect(data, true)
		// Forging a valid 32-bit MAC by chance is ~2^-32; quick's 2000
		// samples cannot hit it.
		return msg == nil && err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
