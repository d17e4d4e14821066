package kdf

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
)

// refGeneric mirrors the seed implementation: fresh scratch slice and
// crypto/hmac state per call. The pooled GenericInto must stay
// byte-identical.
func refGeneric(key []byte, fc byte, params ...[]byte) []byte {
	n := 0
	for _, p := range params {
		n += len(p)
	}
	s := make([]byte, 0, 1+len(params)*3+n)
	s = append(s, fc)
	for _, p := range params {
		s = append(s, p...)
		s = binary.BigEndian.AppendUint16(s, uint16(len(p)))
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(s)
	return mac.Sum(nil)
}

func TestPooledGenericMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		key := make([]byte, 16+rng.Intn(64))
		rng.Read(key)
		fc := byte(rng.Intn(256))
		params := make([][]byte, rng.Intn(4))
		for j := range params {
			params[j] = make([]byte, rng.Intn(40))
			rng.Read(params[j])
		}
		got := Generic(key, fc, params...)
		want := refGeneric(key, fc, params...)
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: pooled Generic diverges\n got %x\nwant %x", i, got, want)
		}
	}
}

// TestPooledGenericConcurrent exercises pool reuse across goroutines; run
// with -race this also proves the pooled states are not shared.
func TestPooledGenericConcurrent(t *testing.T) {
	key := bytes.Repeat([]byte{0x11}, 32)
	want := refGeneric(key, fcKSEAF, []byte("5G:mnc001.mcc001.3gppnetwork.org"))
	var wg sync.WaitGroup
	fail := make(chan struct{}, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if !bytes.Equal(Generic(key, fcKSEAF, []byte("5G:mnc001.mcc001.3gppnetwork.org")), want) {
					fail <- struct{}{}
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-fail:
		t.Fatal("concurrent pooled Generic produced a wrong derivation")
	default:
	}
}
