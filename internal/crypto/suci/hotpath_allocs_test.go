//go:build !race

package suci

import (
	"crypto/rand"
	"testing"
)

// deconcealAllocs is what one Profile A de-concealment allocates: the
// X25519 peer key and its copy of the ephemeral key, the shared secret,
// the AES block cipher of the CTR keystream, and the MSIN string. The KDF
// and MAC state and every scratch buffer are pooled.
const deconcealAllocs = 5

// TestHotPathAllocs holds de-concealment, the one SUCI operation on the
// network's registration path, to exactly deconcealAllocs. sync.Pool drops
// items at random under the race detector, so this file builds only
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
}
