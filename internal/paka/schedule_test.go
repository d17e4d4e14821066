package paka

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"shield5g/internal/crypto/milenage"
	"shield5g/internal/sbi"
)

// testK2 is a second long-term key for re-provisioning scenarios.
var testK2 = []byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff, 0x00}

func avEqual(a, b *UDMGenerateAVResponse) bool {
	return *a == *b
}

// directAV is the AV GenerateAV derives for k, with a schedule of its own.
func directAV(t *testing.T, k []byte, req *UDMGenerateAVRequest) *UDMGenerateAVResponse {
	t.Helper()
	av, err := GenerateAV(k, req)
	if err != nil {
		t.Fatalf("GenerateAV: %v", err)
	}
	return av
}

// directResync is the AUTS verification the eUDM serves, with a schedule
// of its own.
func directResync(k []byte, req *UDMResyncRequest) (*UDMResyncResponse, error) {
	var c milenage.Cipher
	if err := c.Init(k, req.OPc); err != nil {
		return nil, err
	}
	resp := new(UDMResyncResponse)
	return resp, resync(&c, req, resp)
}

// TestGenerateAVCachedMatchesUncached pins the cached mint
// (GenerateAVCachedInto, the benchmark's cached-AV probe) to GenerateAV,
// which expands K's schedule per call, byte-for-byte, across repeated
// hits and a key change in each direction.
func TestGenerateAVCachedMatchesUncached(t *testing.T) {
	cache := milenage.NewCache()
	req := avRequest()
	cached := func(k []byte) *UDMGenerateAVResponse {
		t.Helper()
		var av UDMGenerateAVResponse
		AVInto(make([]byte, AVBackingBytes), &av)
		if err := GenerateAVCachedInto(cache, k, req, &av); err != nil {
			t.Fatalf("GenerateAVCachedInto: %v", err)
		}
		return &av
	}
	for round := 0; round < 3; round++ {
		if !avEqual(cached(testK), directAV(t, testK, req)) {
			t.Fatalf("round %d: cached AV diverges from uncached", round)
		}
	}
	// Same SUPI, new key: the credential check must rebuild, not serve the
	// stale schedule.
	if !avEqual(cached(testK2), directAV(t, testK2, req)) {
		t.Fatal("AV after key change diverges from uncached")
	}
	if !avEqual(cached(testK), directAV(t, testK, req)) {
		t.Fatal("AV after the key changed back diverges from uncached")
	}
}

// testAUTS is the AUTS a UE holding testK sends to resynchronise at sqnMS
// (TS 33.102 §6.3.3).
func testAUTS(t *testing.T, sqnMS []byte) []byte {
	t.Helper()
	c, err := milenage.New(testK, testOPc)
	if err != nil {
		t.Fatal(err)
	}
	akStar, _ := c.F5Star(testRAND)
	macS, _ := c.F1Star(testRAND, sqnMS, []byte{0, 0})
	auts := make([]byte, 0, 14)
	for i := 0; i < 6; i++ {
		auts = append(auts, sqnMS[i]^akStar[i])
	}
	return append(auts, macS...)
}

// TestModuleResyncMatchesDirect: the served resync, which expands its own
// schedule per request, recovers the SQN_MS Resync recovers on every
// backend, request after request, and answers a tampered AUTS 403
// SYNC_FAILURE.
func TestModuleResyncMatchesDirect(t *testing.T) {
	ctx := context.Background()
	sqnMS := []byte{0x00, 0x00, 0x00, 0x00, 0x02, 0x17}
	auts := testAUTS(t, sqnMS)
	for i, iso := range []Isolation{Container, SEV, SGX} {
		t.Run(iso.String(), func(t *testing.T) {
			h := newHarness(t, uint64(70+i))
			m := h.module(t, EUDM, iso)
			if err := m.ProvisionSubscriber(ctx, testSUPI, testK); err != nil {
				t.Fatalf("provision: %v", err)
			}
			req := &UDMResyncRequest{SUPI: testSUPI, OPc: testOPc, RAND: testRAND, AUTS: auts}
			want, err := directResync(testK, req)
			if err != nil || !bytes.Equal(want.SQNMS, sqnMS) {
				t.Fatalf("Resync = %v, %v; want SQN_MS %x", want, err, sqnMS)
			}
			for round := 0; round < 3; round++ {
				var got UDMResyncResponse
				if err := h.client.Post(ctx, EUDM.ServiceName(), PathUDMResync, req, &got); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if !bytes.Equal(got.SQNMS, sqnMS) {
					t.Fatalf("round %d: SQN_MS = %x, want %x", round, got.SQNMS, sqnMS)
				}
			}
			bad := append([]byte(nil), auts...)
			bad[13] ^= 1
			err = h.client.Post(ctx, EUDM.ServiceName(), PathUDMResync,
				&UDMResyncRequest{SUPI: testSUPI, OPc: testOPc, RAND: testRAND, AUTS: bad}, &UDMResyncResponse{})
			var pd *sbi.ProblemDetails
			if !errors.As(err, &pd) || pd.Status != 403 || pd.Cause != "SYNC_FAILURE" {
				t.Fatalf("tampered AUTS: err = %v, want 403 SYNC_FAILURE", err)
			}
		})
	}
}

// TestModuleRekeyAndRestartGolden drives the served SGX module through a
// UDR re-provision with a new key and an enclave crash-restart, and checks
// every served AV against GenerateAV under the key then provisioned: the
// module keeps no schedule that could outlive its key.
func TestModuleRekeyAndRestartGolden(t *testing.T) {
	h := newHarness(t, 77)
	m := h.module(t, EUDM, SGX)
	ctx := context.Background()
	if err := m.ProvisionSubscriber(ctx, testSUPI, testK); err != nil {
		t.Fatalf("provision: %v", err)
	}
	check := func(k []byte, phase string) {
		t.Helper()
		var got UDMGenerateAVResponse
		if err := h.client.Post(ctx, EUDM.ServiceName(), PathUDMGenerateAV, avRequest(), &got); err != nil {
			t.Fatalf("%s: Post: %v", phase, err)
		}
		if !avEqual(&got, directAV(t, k, avRequest())) {
			t.Fatalf("%s: served AV diverges from GenerateAV", phase)
		}
	}

	check(testK, "initial")
	check(testK, "second request")
	if err := m.ProvisionSubscriber(ctx, testSUPI, testK2); err != nil {
		t.Fatalf("re-provision: %v", err)
	}
	check(testK2, "after re-provision")
	// The SGX module recovers the key from its sealed backup.
	if err := m.Restart(ctx); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	check(testK2, "after restart")
}

// TestEUDMClearsLoadedKey: an eUDM handler loads K from its runtime once
// per procedure — AV request, resync and pool refill alike, on every
// backend — and the store it came from still serves the next request. A
// refill loads K once per subscriber run, not per vector: a mixed batch
// loads once per SUPI and still mints each vector under its own key. The
// copy a load returns is a value in expandKey's frame, cleared there once
// the schedule is expanded; make escapes fails if it ever moves to the
// heap.
func TestEUDMClearsLoadedKey(t *testing.T) {
	ctx := context.Background()
	const supi2 = "imsi-001010000000002"
	req2 := avRequest()
	req2.SUPI = supi2
	for i, iso := range []Isolation{Container, SEV, SGX} {
		t.Run(iso.String(), func(t *testing.T) {
			h := newHarness(t, uint64(80+i))
			// The refill's batch crossing needs a spare TCS under SGX.
			m, err := New(ctx, Config{Kind: EUDM, Isolation: iso, Env: h.env, Platform: h.platform, SEVHost: h.sevHost, Registry: h.registry, ReserveBatchTCS: true})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			t.Cleanup(func() { m.Stop(context.Background()) })
			for supi, k := range map[string][]byte{testSUPI: testK, supi2: testK2} {
				if err := m.ProvisionSubscriber(ctx, supi, k); err != nil {
					t.Fatalf("provision %s: %v", supi, err)
				}
			}
			rec := recordLoadedKeys(m)
			scrubbed := func(what string, loads ...string) {
				t.Helper()
				if got := rec.loaded(); !slices.Equal(got, loads) {
					t.Fatalf("%s: key loads %q, want %q", what, got, loads)
				}
			}

			var loads []string
			for round := 1; round <= 2; round++ {
				var av UDMGenerateAVResponse
				if err := h.client.Post(ctx, EUDM.ServiceName(), PathUDMGenerateAV, avRequest(), &av); err != nil {
					t.Fatalf("AV request %d: %v", round, err)
				}
				if !avEqual(&av, directAV(t, testK, avRequest())) {
					t.Fatalf("AV request %d diverges from GenerateAV", round)
				}
				loads = append(loads, testSUPI)
				scrubbed(fmt.Sprintf("AV request %d", round), loads...)
			}

			resync := &UDMResyncRequest{SUPI: testSUPI, OPc: testOPc, RAND: testRAND, AUTS: testAUTS(t, []byte{0, 0, 0, 0, 1, 0})}
			if err := h.client.Post(ctx, EUDM.ServiceName(), PathUDMResync, resync, &UDMResyncResponse{}); err != nil {
				t.Fatalf("resync: %v", err)
			}
			scrubbed("resync", testSUPI, testSUPI, testSUPI)

			batch := &UDMGenerateAVBatchRequest{Items: []UDMGenerateAVRequest{*avRequest(), *avRequest(), *avRequest(), *req2, *req2}}
			var resp UDMGenerateAVBatchResponse
			if err := m.GenerateAVBatch(ctx, batch, &resp); err != nil {
				t.Fatalf("GenerateAVBatch: %v", err)
			}
			scrubbed("refill", testSUPI, testSUPI, testSUPI, testSUPI, supi2)
			for j, av := range resp.Vectors {
				k := testK
				if batch.Items[j].SUPI == supi2 {
					k = testK2
				}
				if !avEqual(&av, directAV(t, k, &batch.Items[j])) {
					t.Fatalf("refill vector %d diverges from GenerateAV", j)
				}
			}
		})
	}
}
