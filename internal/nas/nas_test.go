package nas

import (
	"bytes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"shield5g/internal/crypto/suci"
)

func sampleSUCI() *suci.SUCI {
	return &suci.SUCI{
		MCC:              "001",
		MNC:              "01",
		RoutingIndicator: "0000",
		Scheme:           suci.SchemeProfileA,
		HomeKeyID:        1,
		SchemeOutput:     bytes.Repeat([]byte{0xab}, 50),
	}
}

func sampleGUTI() GUTI {
	return GUTI{MCC: "001", MNC: "01", AMFRegionID: 0x11, AMFSetID: 0x3ff, AMFPointer: 0x2a, TMSI: 0xdeadbeef}
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	data, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode(%s): %v", m.Type(), err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode(%s): %v", m.Type(), err)
	}
	return got
}

func TestRoundTripAllMessages(t *testing.T) {
	msgs := []Message{
		&RegistrationRequest{
			RegistrationType: RegistrationInitial,
			NgKSI:            3,
			Identity:         MobileIdentity{SUCI: sampleSUCI()},
			Capabilities:     []byte{0xf0, 0x70},
		},
		&RegistrationRequest{
			RegistrationType: RegistrationMobility,
			Identity:         MobileIdentity{GUTI: func() *GUTI { g := sampleGUTI(); return &g }()},
		},
		&AuthenticationRequest{NgKSI: 1, ABBA: []byte{0, 0}, RAND: [16]byte{1, 2}, AUTN: [16]byte{3, 4}},
		&AuthenticationResponse{ResStar: [16]byte{9, 8, 7}},
		&AuthenticationFailure{Cause: CauseSyncFailure, AUTS: bytes.Repeat([]byte{5}, 14)},
		&AuthenticationFailure{Cause: CauseMACFailure},
		&AuthenticationReject{},
		&SecurityModeCommand{NgKSI: 1, IntegrityAlg: AlgNIA2, CipheringAlg: AlgNEA2},
		&SecurityModeComplete{},
		&RegistrationAccept{GUTI: sampleGUTI()},
		&RegistrationComplete{},
		&DeregistrationRequest{NgKSI: 2},
		&PDUSessionEstablishmentRequest{SessionID: 1, DNN: "internet"},
		&PDUSessionEstablishmentAccept{SessionID: 1, UEAddress: "10.0.0.2"},
	}
	for _, m := range msgs {
		t.Run(m.Type().String(), func(t *testing.T) {
			got := roundTrip(t, m)
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, m)
			}
		})
	}
}

func TestEncodeValidatesIdentity(t *testing.T) {
	if _, err := Encode(&RegistrationRequest{}); err == nil {
		t.Fatal("empty identity accepted")
	}
	g := sampleGUTI()
	bad := &RegistrationRequest{Identity: MobileIdentity{SUCI: sampleSUCI(), GUTI: &g}}
	if _, err := Encode(bad); err == nil {
		t.Fatal("double identity accepted")
	}
	if _, err := Encode(nil); err == nil {
		t.Fatal("nil message accepted")
	}
}

// TestEncodeRejectsFieldsTheirPrefixCannotExpress holds every LV field to
// its one-byte length prefix: a 256-byte field is an error from Encode and
// Protect, not a wrapped prefix the receiver then reads as trailing bytes.
func TestEncodeRejectsFieldsTheirPrefixCannotExpress(t *testing.T) {
	long := bytes.Repeat([]byte{0x5a}, 256)
	g := sampleGUTI()
	rows := []struct {
		name string
		msg  Message
		ok   bool
	}{
		{"DNN 256", &PDUSessionEstablishmentRequest{SessionID: 1, DNN: string(long)}, false},
		{"UE address 256", &PDUSessionEstablishmentAccept{SessionID: 1, UEAddress: string(long)}, false},
		{"ABBA 256", &AuthenticationRequest{NgKSI: 1, ABBA: long}, false},
		{"AUTS 256", &AuthenticationFailure{Cause: CauseSyncFailure, AUTS: long}, false},
		{"capabilities 256", &RegistrationRequest{Identity: MobileIdentity{GUTI: &g}, Capabilities: long}, false},
		{"DNN 255", &PDUSessionEstablishmentRequest{SessionID: 1, DNN: string(long[:255])}, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			data, err := Encode(row.msg)
			if row.ok {
				if err != nil {
					t.Fatalf("Encode: %v", err)
				}
				got, err := Decode(data)
				if err != nil {
					t.Fatalf("Decode: %v", err)
				}
				if !reflect.DeepEqual(got, row.msg) {
					t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, row.msg)
				}
				return
			}
			if !errors.Is(err, ErrFieldTooLong) || data != nil {
				t.Fatalf("Encode = %d bytes, %v; want nil, ErrFieldTooLong", len(data), err)
			}
			ue, _ := testContexts(t)
			if wire, err := ue.Protect(row.msg, true); !errors.Is(err, ErrFieldTooLong) || wire != nil {
				t.Fatalf("Protect = %d bytes, %v; want nil, ErrFieldTooLong", len(wire), err)
			}
			if ue.uplinkCount != 0 {
				t.Fatal("a refused Protect consumed a sequence number")
			}
		})
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("nil decode = %v", err)
	}
	if _, err := Decode([]byte{0x00, 0x00, 0x41}); !errors.Is(err, ErrBadDiscriminator) {
		t.Fatalf("bad EPD = %v", err)
	}
	if _, err := Decode([]byte{EPD5GMM, 0x00, 0xFF}); !errors.Is(err, ErrUnknownMessage) {
		t.Fatalf("unknown type = %v", err)
	}
	if _, err := Decode([]byte{EPD5GMM, shtProtected, 0x41}); err == nil {
		t.Fatal("protected message decoded without context")
	}
	// Truncated body.
	data, err := Encode(&AuthenticationRequest{})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := Decode(data[:len(data)-3]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated body = %v", err)
	}
	// Trailing garbage.
	if _, err := Decode(append(data, 0x00)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestMessageTypeString(t *testing.T) {
	if MsgAuthenticationRequest.String() != "AuthenticationRequest" {
		t.Fatal("known type name wrong")
	}
	if MessageType(0x00).String() != "MessageType(0x00)" {
		t.Fatal("unknown type name wrong")
	}
}

func TestGUTIString(t *testing.T) {
	g := sampleGUTI()
	if g.String() == "" {
		t.Fatal("empty GUTI string")
	}
}

// Property: registration requests with arbitrary GUTI contents round-trip.
func TestGUTIRoundTripProperty(t *testing.T) {
	f := func(region byte, set uint16, ptr byte, tmsi uint32) bool {
		g := GUTI{MCC: "001", MNC: "01", AMFRegionID: region, AMFSetID: set & 0x3ff, AMFPointer: ptr & 0x3f, TMSI: tmsi}
		m := &RegistrationAccept{GUTI: g}
		data, err := Encode(m)
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		acc, ok := got.(*RegistrationAccept)
		return ok && acc.GUTI == g
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: arbitrary scheme outputs survive the SUCI identity codec.
func TestSUCIIdentityRoundTripProperty(t *testing.T) {
	f := func(out []byte, keyID byte) bool {
		if len(out) > 4096 {
			out = out[:4096]
		}
		s := sampleSUCI()
		s.HomeKeyID = keyID
		s.SchemeOutput = out
		m := &RegistrationRequest{RegistrationType: RegistrationInitial, Identity: MobileIdentity{SUCI: s}}
		data, err := Encode(m)
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		rr, ok := got.(*RegistrationRequest)
		if !ok || rr.Identity.SUCI == nil {
			return false
		}
		return bytes.Equal(rr.Identity.SUCI.SchemeOutput, out) && rr.Identity.SUCI.HomeKeyID == keyID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// --- security context ---

func testContexts(t *testing.T) (*SecurityContext, *SecurityContext) {
	t.Helper()
	kamf := bytes.Repeat([]byte{0x5a}, 32)
	ue, err := NewSecurityContext(kamf)
	if err != nil {
		t.Fatalf("NewSecurityContext: %v", err)
	}
	net, err := NewSecurityContext(kamf)
	if err != nil {
		t.Fatalf("NewSecurityContext: %v", err)
	}
	return ue, net
}

func TestProtectUnprotectRoundTrip(t *testing.T) {
	ue, net := testContexts(t)
	msg := &AuthenticationResponse{ResStar: [16]byte{1, 2, 3}}
	wire, err := ue.Protect(msg, true)
	if err != nil {
		t.Fatalf("Protect: %v", err)
	}
	got, err := net.Unprotect(wire, true)
	if err != nil {
		t.Fatalf("Unprotect: %v", err)
	}
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("round trip mismatch: %#v", got)
	}
}

func TestProtectCiphersPayload(t *testing.T) {
	ue, _ := testContexts(t)
	msg := &PDUSessionEstablishmentRequest{SessionID: 1, DNN: "internet-internet"}
	wire, err := ue.Protect(msg, true)
	if err != nil {
		t.Fatalf("Protect: %v", err)
	}
	if bytes.Contains(wire, []byte("internet-internet")) {
		t.Fatal("protected message leaks plaintext DNN")
	}
}

func TestUnprotectRejectsTamper(t *testing.T) {
	ue, net := testContexts(t)
	wire, err := ue.Protect(&SecurityModeComplete{}, true)
	if err != nil {
		t.Fatalf("Protect: %v", err)
	}
	wire[len(wire)-1] ^= 1
	if _, err := net.Unprotect(wire, true); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered unprotect = %v, want ErrIntegrity", err)
	}
}

func TestUnprotectRejectsReplay(t *testing.T) {
	ue, net := testContexts(t)
	wire, err := ue.Protect(&SecurityModeComplete{}, true)
	if err != nil {
		t.Fatalf("Protect: %v", err)
	}
	if _, err := net.Unprotect(wire, true); err != nil {
		t.Fatalf("first unprotect: %v", err)
	}
	if _, err := net.Unprotect(wire, true); !errors.Is(err, ErrReplay) {
		t.Fatalf("replayed unprotect = %v, want ErrReplay", err)
	}
}

func TestUnprotectDirectionSeparation(t *testing.T) {
	ue, net := testContexts(t)
	wire, err := ue.Protect(&SecurityModeComplete{}, true)
	if err != nil {
		t.Fatalf("Protect: %v", err)
	}
	// Treating an uplink message as downlink must fail the MAC.
	if _, err := net.Unprotect(wire, false); err == nil {
		t.Fatal("direction confusion accepted")
	}
}

func TestUnprotectWrongKey(t *testing.T) {
	ue, _ := testContexts(t)
	other, err := NewSecurityContext(bytes.Repeat([]byte{0x77}, 32))
	if err != nil {
		t.Fatalf("NewSecurityContext: %v", err)
	}
	wire, err := ue.Protect(&SecurityModeComplete{}, true)
	if err != nil {
		t.Fatalf("Protect: %v", err)
	}
	if _, err := other.Unprotect(wire, true); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("wrong-key unprotect = %v, want ErrIntegrity", err)
	}
}

func TestUnprotectHeaderErrors(t *testing.T) {
	_, net := testContexts(t)
	if _, err := net.Unprotect([]byte{EPD5GMM}, true); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short unprotect = %v", err)
	}
	long := make([]byte, 16)
	long[0] = 0x12
	if _, err := net.Unprotect(long, true); !errors.Is(err, ErrBadDiscriminator) {
		t.Fatalf("bad EPD unprotect = %v", err)
	}
	long[0] = EPD5GMM
	long[1] = shtPlain
	if _, err := net.Unprotect(long, true); err == nil {
		t.Fatal("plain SHT accepted by Unprotect")
	}
}

func TestCountsAdvance(t *testing.T) {
	ue, net := testContexts(t)
	for i := 0; i < 5; i++ {
		wire, err := ue.Protect(&SecurityModeComplete{}, true)
		if err != nil {
			t.Fatalf("Protect: %v", err)
		}
		if _, err := net.Unprotect(wire, true); err != nil {
			t.Fatalf("Unprotect %d: %v", i, err)
		}
	}
	up, down := ue.uplinkCount, ue.downlinkCount
	if up != 5 || down != 0 {
		t.Fatalf("UE counts = %d/%d, want 5/0", up, down)
	}
	up, down = net.uplinkCount, net.downlinkCount
	if up != 5 || down != 0 {
		t.Fatalf("net counts = %d/%d, want 5/0", up, down)
	}
}

func TestNewSecurityContextBadKey(t *testing.T) {
	if _, err := NewSecurityContext(make([]byte, 16)); err == nil {
		t.Fatal("short K_AMF accepted")
	}
}

// Property: any message survives protect/unprotect in both directions.
func TestProtectRoundTripProperty(t *testing.T) {
	ue, net := testContexts(t)
	f := func(res [16]byte) bool {
		up, err := ue.Protect(&AuthenticationResponse{ResStar: res}, true)
		if err != nil {
			return false
		}
		got, err := net.Unprotect(up, true)
		if err != nil {
			return false
		}
		ar, ok := got.(*AuthenticationResponse)
		if !ok || ar.ResStar != res {
			return false
		}
		down, err := net.Protect(&RegistrationAccept{GUTI: sampleGUTI()}, false)
		if err != nil {
			return false
		}
		_, err = ue.Unprotect(down, false)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Golden equivalence: the context's manual CTR must be bit-identical to
// the stdlib cipher.NewCTR stream it replaced, across message sizes that
// cover partial, exact and multi-block keystream consumption.
func TestXORKeyStreamMatchesStdlibCTR(t *testing.T) {
	sc, _ := testContexts(t)
	for _, size := range []int{0, 1, 15, 16, 17, 32, 33, 100} {
		src := make([]byte, size)
		for i := range src {
			src[i] = byte(i*7 + 3)
		}
		for _, dir := range []byte{dirUplink, dirDownlink} {
			for _, count := range []uint32{0, 1, 0xFFFFFFFF} {
				got := make([]byte, size)
				sc.xorKeyStream(got, src, dir, count)

				var iv [16]byte
				binary.BigEndian.PutUint32(iv[0:4], count)
				iv[4] = dir << 2
				want := make([]byte, size)
				cipher.NewCTR(sc.cipherBlock(), iv[:]).XORKeyStream(want, src)

				if !bytes.Equal(got, want) {
					t.Fatalf("size=%d dir=%d count=%d: manual CTR diverges from cipher.NewCTR", size, dir, count)
				}
			}
		}
	}
}

// TestDroppedCipherIsTransparent: a context that drops its K_NASenc
// schedule between messages protects and unprotects exactly like one that
// never does. Over 200 random messages, COUNTs and directions the two
// senders emit identical bytes, and the two receivers return identical
// messages and errors, tampered inputs included. A message that fails its
// MAC costs a dropped context no key expansion.
func TestDroppedCipherIsTransparent(t *testing.T) {
	kamf := bytes.Repeat([]byte{0x5a}, 32)
	newCtx := func() *SecurityContext {
		sc, err := NewSecurityContext(kamf)
		if err != nil {
			t.Fatalf("NewSecurityContext: %v", err)
		}
		return sc
	}
	keepTx, dropTx, keepRx, dropRx := newCtx(), newCtx(), newCtx(), newCtx()
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 200; i++ {
		var msg Message
		switch rng.Intn(3) {
		case 0:
			dnn := make([]byte, 1+rng.Intn(40))
			for j := range dnn {
				dnn[j] = 'a' + byte(rng.Intn(26))
			}
			msg = &PDUSessionEstablishmentRequest{SessionID: byte(rng.Intn(16)), DNN: string(dnn)}
		case 1:
			var res [16]byte
			rng.Read(res[:])
			msg = &AuthenticationResponse{ResStar: res}
		default:
			msg = &RegistrationAccept{GUTI: GUTI{MCC: "001", MNC: "01", AMFPointer: 1, TMSI: rng.Uint32()}}
		}
		count, uplink := rng.Uint32(), rng.Intn(2) == 0
		for _, sc := range []*SecurityContext{keepTx, dropTx, keepRx, dropRx} {
			sc.uplinkCount, sc.downlinkCount = count, count
		}
		if rng.Intn(2) == 0 {
			dropTx.DropCipher()
		}
		want, err := keepTx.Protect(msg, uplink)
		if err != nil {
			t.Fatalf("message %d: Protect: %v", i, err)
		}
		got, err := dropTx.Protect(msg, uplink)
		if err != nil {
			t.Fatalf("message %d: Protect after drop: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("message %d (%s, count %d, uplink %v): protected bytes differ after a drop", i, msg.Type(), count, uplink)
		}

		if rng.Intn(4) == 0 {
			want[rng.Intn(len(want))] ^= byte(1 + rng.Intn(255))
		}
		dropRx.DropCipher()
		keepMsg, keepErr := keepRx.Unprotect(want, uplink)
		dropMsg, dropErr := dropRx.Unprotect(want, uplink)
		if !reflect.DeepEqual(dropMsg, keepMsg) || fmt.Sprint(dropErr) != fmt.Sprint(keepErr) {
			t.Fatalf("message %d: Unprotect after drop = %v, %v; never dropped %v, %v", i, dropMsg, dropErr, keepMsg, keepErr)
		}
		if keepErr == nil && !reflect.DeepEqual(keepMsg, msg) {
			t.Fatalf("message %d: round trip gave %#v, want %#v", i, keepMsg, msg)
		}
		if errors.Is(dropErr, ErrIntegrity) && dropRx.HoldsCipher() {
			t.Fatalf("message %d: a forged message made the dropped context expand K_NASenc", i)
		}
	}
}
