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
// pays exactly one allocation, the schedule, to cipher again. sync.Pool
// drops items at random under the race detector, so exact counts only hold
// on a plain build (make ci runs this test once more without -race).
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
	if n := testing.AllocsPerRun(100, func() {
		if _, err := NewSecurityContext(kamf); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("NewSecurityContext: %v allocs, want <= 2", n)
	}
}
