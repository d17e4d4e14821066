package nas

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestMACMatchesHMAC pins the context's 32-bit NAS MAC to a crypto/hmac
// reference, HMAC-SHA-256(K_NASint, COUNT || DIR || payload) truncated,
// over random counts, both directions and payloads of 0–600 bytes.
func TestMACMatchesHMAC(t *testing.T) {
	sc, _ := testContexts(t)
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 500; i++ {
		count := rng.Uint32()
		dir := byte(rng.Intn(2))
		payload := make([]byte, rng.Intn(601))
		rng.Read(payload)

		ref := hmac.New(sha256.New, sc.intKey[:])
		var hdr [5]byte
		binary.BigEndian.PutUint32(hdr[:4], count)
		hdr[4] = dir
		ref.Write(hdr[:])
		ref.Write(payload)
		want := ref.Sum(nil)[:macLen]

		if got := sc.mac(dir, count, payload); !bytes.Equal(got[:], want) {
			t.Fatalf("count=%d dir=%d len=%d: MAC %x, crypto/hmac %x", count, dir, len(payload), got, want)
		}
	}
}

// TestSecurityContextAllocs: a MAC allocates nothing, activating a context
// allocates no MAC state, and a context that dropped its K_NASenc schedule
// pays exactly one allocation, the schedule, to cipher again. The codec
// rows hold the registration path's NAS messages to the caller's stack: a
// message built for Encode or Protect costs only its output PDU, and a
// decode into an Inbox costs nothing but what the wire makes
// variable-length. sync.Pool drops items at random under the race
// detector, so exact counts only hold on a plain build (make ci runs this
// test once more without -race).
func TestSecurityContextAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inexact under -race")
	}
	sc, _ := testContexts(t)
	payload := bytes.Repeat([]byte{0x3c}, 48)
	if n := testing.AllocsPerRun(100, func() { sc.mac(dirUplink, 7, payload) }); n != 0 {
		t.Errorf("mac: %v allocs, want 0", n)
	}
	msg := &SecurityModeComplete{}
	held := testing.AllocsPerRun(100, func() { sc.Protect(msg, true) })
	dropped := testing.AllocsPerRun(100, func() { sc.DropCipher(); sc.Protect(msg, true) })
	if dropped != held+1 {
		t.Errorf("Protect: %v allocs after DropCipher, %v with the schedule held; want exactly one more", dropped, held)
	}
	kamf := bytes.Repeat([]byte{0x5a}, 32)
	// A fresh receiver holds its schedule after the first (warm-up) run,
	// and each run unprotects the next COUNT, so no row trips replay.
	_, rx := testContexts(t)
	accepts := make([][]byte, 101)
	for i := range accepts {
		var err error
		if accepts[i], err = sc.Protect(&RegistrationAccept{GUTI: sampleGUTI()}, false); err != nil {
			t.Fatal(err)
		}
	}
	guti := sampleGUTI()
	reReg, err := Encode(&RegistrationRequest{
		RegistrationType: RegistrationMobility,
		Identity:         MobileIdentity{GUTI: &guti},
		Capabilities:     []byte{AlgNEA2, AlgNIA2},
	})
	if err != nil {
		t.Fatal(err)
	}
	authResp, _ := Encode(&AuthenticationResponse{ResStar: [16]byte{7, 8, 9}})
	smc, _ := Encode(&SecurityModeCommand{IntegrityAlg: AlgNIA2, CipheringAlg: AlgNEA2})
	var in Inbox
	next := 0
	for _, row := range []struct {
		name string
		want float64
		run  func() error
	}{
		{"Encode(AuthenticationRequest), its PDU", 1, func() error {
			_, err := Encode(&AuthenticationRequest{ABBA: []byte{0, 0}, RAND: [16]byte{1}, AUTN: [16]byte{2}})
			return err
		}},
		{"Protect(RegistrationAccept), schedule held, its PDU", 1, func() error {
			_, err := sc.Protect(&RegistrationAccept{GUTI: GUTI{MCC: "001", MNC: "01", TMSI: 9}}, false)
			return err
		}},
		{"DecodeInto(AuthenticationResponse)", 0, func() error { _, err := DecodeInto(authResp, &in); return err }},
		{"DecodeInto(SecurityModeCommand)", 0, func() error { _, err := DecodeInto(smc, &in); return err }},
		{"UnprotectInto(RegistrationAccept)", 0, func() error {
			_, err := rx.UnprotectInto(accepts[next], false, &in)
			next++
			return err
		}},
		{"DecodeInto(GUTI RegistrationRequest), its GUTI and capabilities", 2, func() error {
			_, err := DecodeInto(reReg, &in)
			return err
		}},
	} {
		var err error
		n := testing.AllocsPerRun(100, func() {
			if rerr := row.run(); rerr != nil && err == nil {
				err = rerr
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if n != row.want {
			t.Errorf("%s: %v allocs, want %v", row.name, n, row.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := NewSecurityContext(kamf); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("NewSecurityContext: %v allocs, want <= 2", n)
	}
}
