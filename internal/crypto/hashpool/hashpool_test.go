package hashpool

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding"
	"hash"
	"math/rand"
	"testing"
)

// TestHMACMatchesStdlib pins the manual HMAC-SHA-256 to crypto/hmac over
// keys spanning the short/exact/over-block-size cases and messages of
// assorted lengths, including multi-Write splits.
func TestHMACMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, keyLen := range []int{0, 1, 16, 32, 63, 64, 65, 128, 200} {
		key := make([]byte, keyLen)
		rng.Read(key)
		for _, msgLen := range []int{0, 1, 31, 32, 64, 100, 1000} {
			msg := make([]byte, msgLen)
			rng.Read(msg)

			want := func() []byte {
				m := hmac.New(sha256.New, key)
				m.Write(msg)
				return m.Sum(nil)
			}()

			m := GetHMAC(key)
			m.Write(msg)
			got := m.Sum(nil)
			PutHMAC(m)
			if !bytes.Equal(got, want) {
				t.Fatalf("keyLen=%d msgLen=%d: HMAC mismatch\n got %x\nwant %x", keyLen, msgLen, got, want)
			}

			// Split writes and a dst prefix must not change the tag.
			m = GetHMAC(key)
			half := msgLen / 2
			m.Write(msg[:half])
			m.Write(msg[half:])
			prefixed := m.Sum([]byte{0xAA})
			PutHMAC(m)
			if prefixed[0] != 0xAA || !bytes.Equal(prefixed[1:], want) {
				t.Fatalf("keyLen=%d msgLen=%d: split-write/dst-prefix mismatch", keyLen, msgLen)
			}
		}
	}
}

// TestHMACRekeyAndReset verifies that one state produces correct tags
// across SetKey and Reset cycles — the property pooling depends on.
func TestHMACRekeyAndReset(t *testing.T) {
	keyA := []byte("key-a")
	keyB := bytes.Repeat([]byte{0x7F}, 80) // forces the hashed-key path
	msg := []byte("registration request")

	ref := func(key []byte) []byte {
		m := hmac.New(sha256.New, key)
		m.Write(msg)
		return m.Sum(nil)
	}

	m := GetHMAC(keyA)
	defer PutHMAC(m)
	m.Write(msg)
	if !bytes.Equal(m.Sum(nil), ref(keyA)) {
		t.Fatal("first key: mismatch")
	}
	m.Reset()
	m.Write(msg)
	if !bytes.Equal(m.Sum(nil), ref(keyA)) {
		t.Fatal("after Reset: mismatch")
	}
	m.SetKey(keyB)
	m.Write(msg)
	if !bytes.Equal(m.Sum(nil), ref(keyB)) {
		t.Fatal("after SetKey: mismatch")
	}
}

// TestPooledSHA256 verifies pooled digests match fresh ones across reuse.
func TestPooledSHA256(t *testing.T) {
	msg := []byte("suci ephemeral shared secret")
	want := sha256.Sum256(msg)
	for i := 0; i < 3; i++ {
		h := GetSHA256()
		h.Write(msg)
		if got := h.Sum(nil); !bytes.Equal(got, want[:]) {
			t.Fatalf("round %d: pooled sha256 mismatch", i)
		}
		PutSHA256(h)
	}
}

// TestPutSHA256Scrubs: a state handed back mid-hash over a secret is
// indistinguishable from a fresh one — chaining value, length and buffered
// input, as encoding.BinaryMarshaler serialises them — before the pool can
// hand it to anyone else.
func TestPutSHA256Scrubs(t *testing.T) {
	marshal := func(h hash.Hash) []byte {
		b, err := h.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	h := GetSHA256()
	h.Write(bytes.Repeat([]byte("ecdh shared secret "), 10))
	if bytes.Equal(marshal(h), marshal(sha256.New())) {
		t.Fatal("a state 190 bytes into a hash marshals like a fresh one: the test cannot see a missing reset")
	}
	PutSHA256(h)
	if !bytes.Equal(marshal(h), marshal(sha256.New())) {
		t.Fatal("PutSHA256 pooled a state that still carries its last input")
	}
}

func TestConcurrentUseOfDistinctStates(t *testing.T) {
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			key := []byte{byte(g)}
			msg := bytes.Repeat([]byte{byte(g)}, 100)
			ref := hmac.New(sha256.New, key)
			ref.Write(msg)
			want := ref.Sum(nil)
			for i := 0; i < 200; i++ {
				m := GetHMAC(key)
				m.Write(msg)
				got := m.Sum(nil)
				PutHMAC(m)
				if !bytes.Equal(got, want) {
					done <- bytes.ErrTooLarge // any sentinel error
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal("concurrent pooled HMAC produced a wrong tag")
		}
	}
}
