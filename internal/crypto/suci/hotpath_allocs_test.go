//go:build !race

package suci

import (
	"crypto/rand"
	"testing"
)

// deconcealAllocs is what one Profile A de-concealment allocates: the
// X25519 peer key and its copy of the ephemeral key, the shared secret and
// the AES block cipher of the CTR keystream. The KDF and MAC state and
// every scratch buffer are pooled, and the SUPI is a value built from the
// plaintext on the stack.
const deconcealAllocs = 4

// concealAllocs is what one Profile A concealment allocates: the X25519
// ephemeral key (crypto/ecdh's private key, its public key and a copy of
// each key's bytes), the shared secret, the AES block cipher of the CTR
// keystream, the scheme output and the SUCI. The scalar is drawn into
// pooled scratch and the home-network key is parsed once per key. It was
// 12 while the scalar was drawn by ecdh's GenerateKey and the key parsed
// on every call.
const concealAllocs = 8

// TestHotPathAllocs holds de-concealment, the one SUCI operation on the
// network's registration path, to exactly deconcealAllocs, concealment,
// the UE's, to exactly concealAllocs, and a SUPI's conversion to the
// value the SBI carries (SUPI.Value) to none. sync.Pool
// drops items at random under the race detector, so this file builds only
// without -race; make ci runs it in its no-race go test run.
func TestHotPathAllocs(t *testing.T) {
	k := testKey(t)
	s, err := Conceal(rand.Reader, testSUPI, "0000", k.PublicKey(), k.ID)
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, derr := k.Deconceal(s); derr != nil {
			err = derr
		}
	})
	if err != nil || n != deconcealAllocs {
		t.Errorf("Deconceal: %v allocs, err %v; want %d, nil", n, err, deconcealAllocs)
	}
	pub := k.PublicKey()
	n = testing.AllocsPerRun(100, func() {
		if _, cerr := Conceal(rand.Reader, testSUPI, "0000", pub, k.ID); cerr != nil {
			err = cerr
		}
	})
	if err != nil || n != concealAllocs {
		t.Errorf("Conceal: %v allocs, err %v; want %d, nil", n, err, concealAllocs)
	}
	n = testing.AllocsPerRun(100, func() {
		if _, verr := testSUPI.Value(); verr != nil {
			err = verr
		}
	})
	if err != nil || n != 0 {
		t.Errorf("SUPI.Value: %v allocs, err %v; want 0, nil", n, err)
	}
}
