package paka

import (
	"bytes"
	"context"
	"testing"

	"shield5g/internal/crypto/milenage"
)

// testK2 is a second long-term key for re-provisioning scenarios.
var testK2 = []byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff, 0x00}

func avEqual(a, b *UDMGenerateAVResponse) bool {
	return bytes.Equal(a.RAND, b.RAND) && bytes.Equal(a.AUTN, b.AUTN) &&
		bytes.Equal(a.XRESStar, b.XRESStar) && bytes.Equal(a.KAUSF, b.KAUSF)
}

// TestGenerateAVCachedMatchesUncached pins the cached derivation to the
// uncached (nil-cache, fresh key schedule) path byte-for-byte, across
// repeated hits, a key change, and explicit invalidation.
func TestGenerateAVCachedMatchesUncached(t *testing.T) {
	cache := milenage.NewCache()
	req := avRequest()
	for round := 0; round < 3; round++ {
		got, err := GenerateAVCached(cache, testK, req)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want, err := GenerateAVCached(nil, testK, req)
		if err != nil {
			t.Fatalf("round %d uncached: %v", round, err)
		}
		if !avEqual(got, want) {
			t.Fatalf("round %d: cached AV diverges from uncached", round)
		}
	}

	// Same SUPI, new key: the credential check must rebuild, not serve the
	// stale schedule.
	got, err := GenerateAVCached(cache, testK2, req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := GenerateAV(testK2, req)
	if err != nil {
		t.Fatal(err)
	}
	if !avEqual(got, want) {
		t.Fatal("AV after key change diverges from uncached")
	}

	// Explicit invalidation: next hit rebuilds and still matches.
	cache.Invalidate(testSUPI)
	got, err = GenerateAVCached(cache, testK, req)
	if err != nil {
		t.Fatal(err)
	}
	want, err = GenerateAV(testK, req)
	if err != nil {
		t.Fatal(err)
	}
	if !avEqual(got, want) {
		t.Fatal("AV after invalidation diverges from uncached")
	}
}

// TestResyncCachedMatchesUncached covers the AUTS verification path with a
// shared cache: the verification outcome and recovered SQN_MS must match
// the uncached path, including MAC failure behaviour.
func TestResyncCachedMatchesUncached(t *testing.T) {
	c, err := milenage.New(testK, testOPc)
	if err != nil {
		t.Fatal(err)
	}
	sqnMS := []byte{0x00, 0x00, 0x00, 0x00, 0x02, 0x17}
	akStar, _ := c.F5Star(testRAND)
	macS, _ := c.F1Star(testRAND, sqnMS, []byte{0, 0})
	auts := make([]byte, 0, 14)
	for i := 0; i < 6; i++ {
		auts = append(auts, sqnMS[i]^akStar[i])
	}
	auts = append(auts, macS...)

	cache := milenage.NewCache()
	req := &UDMResyncRequest{SUPI: testSUPI, OPc: testOPc, RAND: testRAND, AUTS: auts}
	for round := 0; round < 3; round++ {
		got, err := ResyncCached(cache, testK, req)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !bytes.Equal(got.SQNMS, sqnMS) {
			t.Fatalf("round %d: SQN_MS = %x, want %x", round, got.SQNMS, sqnMS)
		}
	}
	// A cached schedule must not weaken MAC-S verification.
	bad := append([]byte(nil), auts...)
	bad[13] ^= 1
	if _, err := ResyncCached(cache, testK, &UDMResyncRequest{SUPI: testSUPI, OPc: testOPc, RAND: testRAND, AUTS: bad}); err == nil {
		t.Fatal("tampered AUTS accepted through cache")
	}
}

// TestModuleCacheInvalidationGolden drives the served SGX module through
// the two cache-invalidation triggers — a UDR re-provision with a new key
// and an enclave crash-restart — and checks every served AV against the
// uncached derivation.
func TestModuleCacheInvalidationGolden(t *testing.T) {
	h := newHarness(t, 77)
	m := h.module(t, EUDM, SGX)
	ctx := context.Background()
	if err := m.ProvisionSubscriber(ctx, testSUPI, testK); err != nil {
		t.Fatalf("provision: %v", err)
	}

	post := func() *UDMGenerateAVResponse {
		t.Helper()
		var resp UDMGenerateAVResponse
		if err := h.client.Post(ctx, EUDM.ServiceName(), PathUDMGenerateAV, avRequest(), &resp); err != nil {
			t.Fatalf("Post: %v", err)
		}
		return &resp
	}
	check := func(k []byte, phase string) {
		t.Helper()
		got := post()
		want, err := GenerateAV(k, avRequest())
		if err != nil {
			t.Fatal(err)
		}
		if !avEqual(got, want) {
			t.Fatalf("%s: served AV diverges from uncached derivation", phase)
		}
	}

	check(testK, "initial")
	check(testK, "cache warm") // second request serves from the cached schedule

	// UDR re-provision with a new key: the module must invalidate the
	// cached schedule and derive with the fresh key.
	if err := m.ProvisionSubscriber(ctx, testSUPI, testK2); err != nil {
		t.Fatalf("re-provision: %v", err)
	}
	check(testK2, "after re-provision")

	// Enclave crash-restart: the cache is reset with the rest of the
	// in-enclave state; the SGX module recovers the key from its sealed
	// backup and the first post-restart AV must still be correct.
	if err := m.Restart(ctx); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	check(testK2, "after restart")
}
