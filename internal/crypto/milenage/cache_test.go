package milenage

import (
	"bytes"
	"sync"
	"testing"
)

// TestCacheMatchesUncached pins every MILENAGE function of a cached
// Cipher byte-for-byte to a freshly constructed one (golden vectors via
// TS 35.207 Test Set 1, which the uncached tests above already pin).
func TestCacheMatchesUncached(t *testing.T) {
	k := mustHex(t, testSet1.k)
	opc := mustHex(t, testSet1.opc)
	rand := mustHex(t, testSet1.rand)
	sqn := mustHex(t, testSet1.sqn)
	amf := mustHex(t, testSet1.amf)

	cc := NewCache()
	fresh := newTestCipher(t)

	for round := 0; round < 3; round++ {
		cached, err := cc.Get("imsi-1", k, opc)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		gotA, _ := f1(cached, rand, sqn, amf)
		wantA, _ := f1(fresh, rand, sqn, amf)
		if !bytes.Equal(gotA, wantA) {
			t.Fatalf("round %d: F1 cached %x != fresh %x", round, gotA, wantA)
		}
		gotS, _ := cached.F1Star(rand, sqn, amf)
		wantS, _ := fresh.F1Star(rand, sqn, amf)
		if !bytes.Equal(gotS, wantS) {
			t.Fatalf("round %d: F1* mismatch", round)
		}
		res, ck, ik, ak, err := f2345(cached, rand)
		if err != nil {
			t.Fatalf("F2345Into: %v", err)
		}
		wres, wck, wik, wak, _ := f2345(fresh, rand)
		if !bytes.Equal(res, wres) || !bytes.Equal(ck, wck) || !bytes.Equal(ik, wik) || !bytes.Equal(ak, wak) {
			t.Fatalf("round %d: F2345 mismatch", round)
		}
		akS, _ := cached.F5Star(rand)
		wantAKS, _ := fresh.F5Star(rand)
		if !bytes.Equal(akS, wantAKS) {
			t.Fatalf("round %d: F5* mismatch", round)
		}
	}
	if len(cc.m) != 1 {
		t.Fatalf("%d cached schedules, want 1", len(cc.m))
	}
}

// TestCacheRekeyRebuilds proves a re-provisioned subscriber (same SUPI,
// new K) never sees the stale key schedule: the credential check rebuilds
// the entry even without an explicit Invalidate.
func TestCacheRekeyRebuilds(t *testing.T) {
	k1 := mustHex(t, testSet1.k)
	opc := mustHex(t, testSet1.opc)
	rand := mustHex(t, testSet1.rand)

	k2 := append([]byte(nil), k1...)
	k2[0] ^= 0xff

	cc := NewCache()
	c1, err := cc.Get("imsi-1", k1, opc)
	if err != nil {
		t.Fatal(err)
	}
	res1, _, _, _, _ := f2345(c1, rand)

	c2, err := cc.Get("imsi-1", k2, opc)
	if err != nil {
		t.Fatal(err)
	}
	res2, _, _, _, _ := f2345(c2, rand)

	wantC2, _ := New(k2, opc)
	want2, _, _, _, _ := f2345(wantC2, rand)
	if !bytes.Equal(res2, want2) {
		t.Fatalf("after rekey: RES %x, want fresh %x", res2, want2)
	}
	if bytes.Equal(res1, res2) {
		t.Fatal("rekeyed subscriber produced the stale RES")
	}
}

func TestCacheInvalidateAndReset(t *testing.T) {
	k := mustHex(t, testSet1.k)
	opc := mustHex(t, testSet1.opc)
	rand := mustHex(t, testSet1.rand)

	cc := NewCache()
	if _, err := cc.Get("a", k, opc); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Get("b", k, opc); err != nil {
		t.Fatal(err)
	}
	cc.Invalidate("a")
	if len(cc.m) != 1 {
		t.Fatalf("after Invalidate: %d cached schedules, want 1", len(cc.m))
	}
	cc.Reset()
	if len(cc.m) != 0 {
		t.Fatalf("after Reset: %d cached schedules, want 0", len(cc.m))
	}

	// Post-reset lookups still produce golden outputs.
	c, err := cc.Get("a", k, opc)
	if err != nil {
		t.Fatal(err)
	}
	res, _, _, _, _ := f2345(c, rand)
	if want := mustHex(t, testSet1.res); !bytes.Equal(res, want) {
		t.Fatalf("post-reset RES = %x, want %x", res, want)
	}
}

// TestCacheNilReceiver: a nil cache degrades to uncached construction.
func TestCacheNilReceiver(t *testing.T) {
	var cc *Cache
	c, err := cc.Get("a", mustHex(t, testSet1.k), mustHex(t, testSet1.opc))
	if err != nil {
		t.Fatal(err)
	}
	if c == nil {
		t.Fatal("nil cache returned nil cipher")
	}
	cc.Invalidate("a")
	cc.Reset()
}

func TestCacheBadCredentialLengths(t *testing.T) {
	cc := NewCache()
	if _, err := cc.Get("a", make([]byte, 3), make([]byte, 16)); err == nil {
		t.Fatal("short key: want error")
	}
	// A cached entry must not be returned for differently-sized keys.
	k := mustHex(t, testSet1.k)
	opc := mustHex(t, testSet1.opc)
	if _, err := cc.Get("a", k, opc); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Get("a", k[:15], opc); err == nil {
		t.Fatal("truncated key after caching: want error")
	}
}

func TestCacheConcurrent(t *testing.T) {
	k := mustHex(t, testSet1.k)
	opc := mustHex(t, testSet1.opc)
	rand := mustHex(t, testSet1.rand)
	want := mustHex(t, testSet1.res)

	cc := NewCache()
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c, err := cc.Get("imsi-1", k, opc)
				if err != nil {
					errs <- err.Error()
					return
				}
				res, _, _, _, err := f2345(c, rand)
				if err != nil || !bytes.Equal(res, want) {
					errs <- "RES mismatch under concurrency"
					return
				}
				if i%10 == 0 {
					cc.Invalidate("imsi-1")
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
