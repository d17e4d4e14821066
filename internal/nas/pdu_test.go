package nas

import (
	"bytes"
	"errors"
	"runtime/debug"
	"strings"
	"testing"

	"shield5g/internal/crypto/kdf"
)

// panicOf runs fn and returns what it panicked with, or nil.
func panicOf(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestPDUWriteAfterReleaseIsCaught: with the audit on (this package's
// TestMain), a write through a PDU its owner has released panics at the
// pool's next draw of that array, and a second release panics at once.
// The pool drops items at random under the race detector and a draw on
// another P may miss the array, so the write is repeated until a draw
// catches it.
func TestPDUWriteAfterReleaseIsCaught(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	msg := &AuthenticationResponse{ResStar: [16]byte{1}}
	var caught any
	for i := 0; i < 1000 && caught == nil; i++ {
		pdu, err := Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		Release(pdu)
		pdu[0] = EPD5GMM // the write after release
		caught = panicOf(func() {
			if _, err := Encode(msg); err != nil {
				t.Fatal(err)
			}
		})
		if caught == nil {
			// The draw missed the array: poison it again, so that no
			// later test draws it.
			pdu[0] = poisonByte
		}
	}
	if s, _ := caught.(string); !strings.Contains(s, "written after release") {
		t.Fatalf("a write to a released PDU was not caught at the next draw (panic %v)", caught)
	}

	pdu, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	Release(pdu)
	if r, _ := panicOf(func() { Release(pdu) }).(string); !strings.Contains(r, "released twice") {
		t.Fatalf("second release of a PDU: panic %q, want \"released twice\"", r)
	}
}

// TestReleaseIgnoresForeignSlices: Release pools only the arrays Encode
// and Protect draw. A slice of another capacity, and a PDU that outgrew
// the pooled array, are left alone: the pool's arrays stay the same size
// and nobody's buffer is recycled behind their back.
func TestReleaseIgnoresForeignSlices(t *testing.T) {
	own := bytes.Repeat([]byte{0x5a}, 40)
	Release(own)
	Release(nil)
	long, err := Encode(&PDUSessionEstablishmentRequest{SessionID: 1, DNN: strings.Repeat("d", 200)})
	if err != nil {
		t.Fatal(err)
	}
	if cap(long) == pduCap {
		t.Fatalf("a %d-byte PDU fits a %d-byte array", len(long), pduCap)
	}
	Release(long)
	if !bytes.Equal(own, bytes.Repeat([]byte{0x5a}, 40)) {
		t.Fatal("Release wrote to a slice the pool did not hand out")
	}
	if m, err := Decode(long); err != nil || m.(*PDUSessionEstablishmentRequest).DNN != strings.Repeat("d", 200) {
		t.Fatalf("an outgrown PDU changed on Release: %v, %v", m, err)
	}
}

// TestActivateStartsClean: a context re-keyed in place starts as a fresh
// one. The context below has non-zero COUNTs both ways and still holds
// its K_NASenc schedule, as a UE does when a PDU session accept is lost;
// after Activate with a new K_AMF it emits the bytes a fresh context
// emits from COUNT 0, accepts a fresh peer's first downlink, and holds no
// schedule. After Clear both keys read zero and it is no longer Active.
func TestActivateStartsClean(t *testing.T) {
	sc, peer := testContexts(t)
	for range 3 {
		up, err := sc.Protect(&PDUSessionEstablishmentRequest{SessionID: 1, DNN: "internet"}, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := peer.Unprotect(up, true); err != nil {
			t.Fatal(err)
		}
		Release(up)
	}
	down, err := peer.Protect(&PDUSessionEstablishmentAccept{SessionID: 1, UEAddress: "10.45.0.2"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Unprotect(down, false); err != nil {
		t.Fatal(err)
	}
	Release(down)
	if !sc.HoldsCipher() || sc.uplinkCount == 0 || sc.downlinkCount == 0 {
		t.Fatal("setup: the context should hold its schedule and non-zero COUNTs")
	}

	kamf := bytes.Repeat([]byte{0x77}, 32)
	if err := sc.Activate(kamf); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	if sc.HoldsCipher() {
		t.Fatal("Activate kept the old K_NASenc schedule")
	}
	if !sc.Active() {
		t.Fatal("an activated context reports no keys")
	}
	fresh, err := NewSecurityContext(kamf)
	if err != nil {
		t.Fatal(err)
	}
	msg := &PDUSessionEstablishmentRequest{SessionID: 2, DNN: "ims"}
	got, err := sc.Protect(msg, true)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewSecurityContext(kamf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Protect(msg, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-keyed context emits %x, a fresh one %x", got, want)
	}
	if _, err := fresh.Unprotect(got, true); err != nil {
		t.Fatalf("a fresh peer rejects the re-keyed context's first uplink: %v", err)
	}
	first, err := fresh.Protect(&RegistrationAccept{GUTI: sampleGUTI()}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Unprotect(first, false); err != nil {
		t.Fatalf("the re-keyed context rejects a fresh peer's first downlink: %v", err)
	}

	sc.Clear()
	if sc.Active() || sc.encKey != [kdf.KeyLen128]byte{} || sc.intKey != [kdf.KeyLen128]byte{} {
		t.Fatal("Clear left key material in the context")
	}
	if _, err := sc.Unprotect(first, false); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("a cleared context verifies a MAC: %v", err)
	}
	if err := sc.Activate(make([]byte, 16)); err == nil || sc.Active() {
		t.Fatalf("Activate with a short K_AMF: err %v, active %v; want an error and a cleared context", err, sc.Active())
	}
}
