package nas

import (
	"bytes"
	"testing"
)

func benchRegistrationRequest() *RegistrationRequest {
	return &RegistrationRequest{
		RegistrationType: RegistrationInitial,
		NgKSI:            0,
		Identity:         MobileIdentity{Kind: IdentityTypeSUCI, SUCI: sampleSUCI()},
		Capabilities:     Capabilities(AlgNEA2, AlgNIA2),
	}
}

func BenchmarkEncodeRegistrationRequest(b *testing.B) {
	msg := benchRegistrationRequest()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRegistrationRequest(b *testing.B) {
	data, err := Encode(benchRegistrationRequest())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProtect(b *testing.B) {
	sc, err := NewSecurityContext(bytes.Repeat([]byte{0x42}, 32))
	if err != nil {
		b.Fatal(err)
	}
	msg := &AuthenticationResponse{ResStar: [16]byte{1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Protect(msg, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProtectUnprotectRoundTrip(b *testing.B) {
	kamf := bytes.Repeat([]byte{0x42}, 32)
	ueCtx, err := NewSecurityContext(kamf)
	if err != nil {
		b.Fatal(err)
	}
	netCtx, err := NewSecurityContext(kamf)
	if err != nil {
		b.Fatal(err)
	}
	msg := &AuthenticationResponse{ResStar: [16]byte{1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire, err := ueCtx.Protect(msg, true)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := netCtx.Unprotect(wire, true); err != nil {
			b.Fatal(err)
		}
	}
}
