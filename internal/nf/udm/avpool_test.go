package udm

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"slices"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/crypto/milenage"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/nf/nrf"
	"shield5g/internal/nf/udr"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/sbi/codec"
)

// countingInvoker is the invoker under the UDM's eUDM client: it counts
// the vectors each route asks the module to mint.
type countingInvoker struct {
	sbi.Invoker
	single     int
	batch      int
	batchItems int
}

func (c *countingInvoker) Post(ctx context.Context, service, path string, req, resp codec.Message) error {
	switch path {
	case paka.PathUDMGenerateAV:
		c.single++
	case paka.PathUDMGenerateAVBatch:
		c.batch++
		c.batchItems += len(req.(*paka.UDMGenerateAVBatchRequest).Items)
	}
	return c.Invoker.Post(ctx, service, path, req, resp)
}

// minted counts the vectors the execution environment was asked for, by
// either route.
func (c *countingInvoker) minted() int { return c.single + c.batchItems }

type poolHarness struct {
	*harness
	fns *countingInvoker
}

// newPoolHarness builds a UDM with the AV pool enabled, deterministic
// entropy, and an instrumented client to its eUDM module.
func newPoolHarness(t *testing.T, depth int) *poolHarness {
	t.Helper()
	env := costmodel.NewEnv(nil, 1)
	reg := sbi.NewRegistry()
	if _, err := nrf.New(env, reg); err != nil {
		t.Fatalf("nrf.New: %v", err)
	}
	if _, err := udr.New(env, reg); err != nil {
		t.Fatalf("udr.New: %v", err)
	}
	hnKey, err := suci.GenerateHomeNetworkKey(rand.Reader, 1)
	if err != nil {
		t.Fatalf("GenerateHomeNetworkKey: %v", err)
	}
	invoker := sbi.NewClient("udm", env, reg)
	fns := &countingInvoker{Invoker: invoker}
	eudm, remote := newEUDM(t, env, reg, fns)
	u, err := New(context.Background(), Config{
		Env: env, Registry: reg, Invoker: invoker,
		Functions: remote, HomeNetworkKey: hnKey,
		Entropy:     mrand.New(mrand.NewSource(42)),
		AVPoolDepth: depth,
		Reprovision: eudm.ProvisionSubscriber,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &poolHarness{
		harness: &harness{
			env: env, udm: u, hnKey: hnKey, eudm: eudm,
			client: NewClientFor(sbi.NewClient("ausf", env, reg), ServiceName),
			udrc:   udr.NewClient(sbi.NewClient("test", env, reg)),
		},
		fns: fns,
	}
}

func (h *poolHarness) auth(t *testing.T, supi suci.SUPI) GenerateAuthDataResponse {
	t.Helper()
	resp, err := h.client.GenerateAuthData(context.Background(), &GenerateAuthDataRequest{
		SUPI: supi.String(), ServingNetworkName: testSNN,
	})
	if err != nil {
		t.Fatalf("GenerateAuthData: %v", err)
	}
	return resp
}

// sqnOf recovers the clear SQN from a response (AUTN = SQN^AK || AMF ||
// MAC-A).
func sqnOf(t *testing.T, resp GenerateAuthDataResponse) []byte {
	t.Helper()
	opc, err := milenage.ComputeOPc(testK, make([]byte, 16))
	if err != nil {
		t.Fatalf("ComputeOPc: %v", err)
	}
	mil, err := milenage.New(testK, opc)
	if err != nil {
		t.Fatalf("milenage.New: %v", err)
	}
	_, _, _, ak, err := mil.F2345Into(make([]byte, 48), resp.RAND[:])
	if err != nil {
		t.Fatalf("F2345Into: %v", err)
	}
	sqn := make([]byte, 6)
	for i := range sqn {
		sqn[i] = resp.AUTN[i] ^ ak[i]
	}
	return sqn
}

// resync reports a valid AUTS rebasing supi's network SQN to sqnMS.
func (h *poolHarness) resync(t *testing.T, supi suci.SUPI, sqnMS []byte) {
	t.Helper()
	opc, err := milenage.ComputeOPc(testK, make([]byte, 16))
	if err != nil {
		t.Fatalf("ComputeOPc: %v", err)
	}
	mil, err := milenage.New(testK, opc)
	if err != nil {
		t.Fatalf("milenage.New: %v", err)
	}
	randBytes := bytes.Repeat([]byte{0x5c}, 16)
	akStar, err := mil.F5Star(randBytes)
	if err != nil {
		t.Fatalf("F5Star: %v", err)
	}
	concealed := make([]byte, 6)
	for i := range concealed {
		concealed[i] = sqnMS[i] ^ akStar[i]
	}
	macS, err := mil.F1Star(randBytes, sqnMS, []byte{0, 0})
	if err != nil {
		t.Fatalf("F1Star: %v", err)
	}
	if err := h.client.Resync(context.Background(), &ResyncRequest{
		SUPI: value(t, supi), RAND: randBytes, AUTS: append(concealed, macS...),
	}); err != nil {
		t.Fatalf("Resync: %v", err)
	}
}

func TestAVPoolHitMissRefillCounters(t *testing.T) {
	h := newPoolHarness(t, 4)
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000000001"}
	h.provision(t, supi)

	h.auth(t, supi) // first contact: mints 2, serves 1, banks 1
	if s := h.udm.AVPoolStats(); s.Misses != 1 || s.Hits != 0 || s.Refills != 1 || s.Pooled != 1 {
		t.Fatalf("after first miss: %+v", s)
	}
	h.auth(t, supi)
	if s := h.udm.AVPoolStats(); s.Misses != 1 || s.Hits != 1 || s.Refills != 1 || s.Pooled != 0 {
		t.Fatalf("after draining the first refill: %+v", s)
	}

	h.auth(t, supi) // returning SUPI: mints the depth, serves 1, banks 3
	if s := h.udm.AVPoolStats(); s.Misses != 2 || s.Refills != 2 || s.Pooled != 3 {
		t.Fatalf("after second miss: %+v", s)
	}
	for i := 0; i < 3; i++ {
		h.auth(t, supi)
	}
	if s := h.udm.AVPoolStats(); s.Misses != 2 || s.Hits != 4 || s.Refills != 2 || s.Pooled != 0 {
		t.Fatalf("after draining the second refill: %+v", s)
	}
	if h.fns.batch != 2 || h.fns.single != 0 || h.fns.minted() != 6 {
		t.Fatalf("refills used %d batch / %d single calls minting %d, want 2/0 minting 6",
			h.fns.batch, h.fns.single, h.fns.minted())
	}

	h.auth(t, supi) // third refill: the depth again
	if s := h.udm.AVPoolStats(); s.Misses != 3 || s.Refills != 3 || s.Pooled != 3 {
		t.Fatalf("after third miss: %+v", s)
	}
}

// TestRefillRecoversALostKeyAsOneBatch: a guest eUDM that lost a SUPI's
// key (a restart, or an eviction) answers the next refill USER_NOT_FOUND;
// the UDM re-provisions the key once and posts the same batch again, and
// never falls back to single generate-av posts.
func TestRefillRecoversALostKeyAsOneBatch(t *testing.T) {
	h := newPoolHarness(t, 8)
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000000001"}
	h.provision(t, supi)
	h.auth(t, supi) // first contact: mints 2, serves 1, banks 1
	h.auth(t, supi) // a hit
	if err := h.eudm.EvictSubscriber(context.Background(), value(t, supi)); err != nil {
		t.Fatal(err)
	}
	*h.fns = countingInvoker{Invoker: h.fns.Invoker}
	h.auth(t, supi) // a miss: the refill finds no key
	if n := h.udm.Reprovisions(); n != 1 {
		t.Fatalf("reprovisioned %d times, want 1", n)
	}
	if h.fns.batch != 2 || h.fns.batchItems != 16 || h.fns.single != 0 {
		t.Fatalf("refill posted generate-av-batch %d times (%d items) and generate-av %d times; want 2 (16) and 0",
			h.fns.batch, h.fns.batchItems, h.fns.single)
	}
	if s := h.udm.AVPoolStats(); s.Refills != 2 || s.Pooled != 7 {
		t.Fatalf("pool after the recovered refill: %+v, want 2 refills and 7 banked", s)
	}
}

func TestAVPoolPreservesSQNOrder(t *testing.T) {
	h := newPoolHarness(t, 4)
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000000001"}
	h.provision(t, supi)

	var prev []byte
	for i := 0; i < 8; i++ { // two full refill cycles
		sqn := sqnOf(t, h.auth(t, supi))
		if prev != nil && bytes.Compare(sqn, prev) <= 0 {
			t.Fatalf("auth %d: SQN %x not above previous %x", i, sqn, prev)
		}
		prev = sqn
	}
}

func TestAVPoolResyncInvalidates(t *testing.T) {
	h := newPoolHarness(t, 4)
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000000001"}
	h.provision(t, supi)
	h.auth(t, supi) // first contact: banks 1
	h.auth(t, supi) // hit
	h.auth(t, supi) // returning SUPI: banks 3

	// A valid AUTS rebasing the UE's SQN ahead of the network's.
	sqnMS := []byte{0, 0, 0, 9, 0, 0}
	h.resync(t, supi, sqnMS)

	s := h.udm.AVPoolStats()
	if s.Invalidated != 3 || s.Pooled != 0 {
		t.Fatalf("after resync: %+v, want 3 invalidated, 0 pooled", s)
	}
	// The next authentication refills from the rebased counter, as a
	// first contact again: its SQN must sit above the UE's reported
	// SQN_MS, and it banks one.
	if sqn := sqnOf(t, h.auth(t, supi)); bytes.Compare(sqn, sqnMS) <= 0 {
		t.Fatalf("post-resync SQN %x not above SQN_MS %x", sqn, sqnMS)
	}
	if s := h.udm.AVPoolStats(); s.Pooled != 1 {
		t.Fatalf("post-resync refill banked %d vectors, want 1", s.Pooled)
	}
}

func TestInvalidateAVPoolDropsEverything(t *testing.T) {
	h := newPoolHarness(t, 4)
	a := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000000001"}
	b := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000000002"}
	h.provision(t, a)
	h.provision(t, b)
	h.auth(t, a) // first contact: banks 1
	h.auth(t, a) // hit
	h.auth(t, a) // returning SUPI: banks 3
	h.auth(t, b) // first contact: banks 1

	h.udm.InvalidateAVPool()
	s := h.udm.AVPoolStats()
	if s.Pooled != 0 || s.Invalidated != 4 {
		t.Fatalf("after invalidate-all: %+v, want 0 pooled, 4 invalidated", s)
	}
	// Authentication still works: the pool refills from scratch, and a
	// forgotten SUPI is a first contact again.
	h.auth(t, a)
	if s := h.udm.AVPoolStats(); s.Pooled != 1 || s.Refills != 4 {
		t.Fatalf("after re-refill: %+v", s)
	}
}

// TestAVPoolFirstContactBanksOne holds the refill-size rule at every
// depth: a SUPI's first miss mints min(2, depth) in one batch crossing and
// banks all but the one it serves; a prewarmed SUPI, and any SUPI after
// its first refill, mints the depth; resync and crash invalidation forget
// the SUPI; and the SQN of every served vector rises strictly.
func TestAVPoolFirstContactBanksOne(t *testing.T) {
	for _, depth := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("depth-%d", depth), func(t *testing.T) {
			first := min(2, depth)
			h := newPoolHarness(t, depth)
			last := map[string][]byte{}
			// mints authenticates supi once, checks its SQN rose, and
			// returns how many vectors the request minted.
			mints := func(supi suci.SUPI) int {
				t.Helper()
				before := h.fns.minted()
				sqn := sqnOf(t, h.auth(t, supi))
				if prev := last[supi.String()]; prev != nil && bytes.Compare(sqn, prev) <= 0 {
					t.Fatalf("%s: SQN %x not above previous %x", supi, sqn, prev)
				}
				last[supi.String()] = sqn
				return h.fns.minted() - before
			}
			fresh := func(msin string) suci.SUPI {
				supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: msin}
				h.provision(t, supi)
				return supi
			}

			// First contact, then the drained ring's next miss.
			a := fresh("0000000001")
			if got := mints(a); got != first {
				t.Fatalf("first miss minted %d, want %d", got, first)
			}
			if got := h.udm.AVPoolStats().Pooled; got != first-1 {
				t.Fatalf("first contact banked %d, want %d", got, first-1)
			}
			for i := 1; i < first; i++ {
				if got := mints(a); got != 0 {
					t.Fatalf("banked vector %d minted %d, want a hit", i, got)
				}
			}
			if got := mints(a); got != depth {
				t.Fatalf("returning miss minted %d, want %d", got, depth)
			}
			if h.fns.single != 0 || h.fns.batch != 2 {
				t.Fatalf("%d batch / %d single calls, want 2 / 0", h.fns.batch, h.fns.single)
			}

			// Prewarm marks the SUPI as minted for.
			b := fresh("0000000002")
			if err := h.udm.PrewarmAVPool(context.Background(), []string{b.String()}, testSNN); err != nil {
				t.Fatalf("PrewarmAVPool: %v", err)
			}
			for i := 0; i < depth; i++ {
				if got := mints(b); got != 0 {
					t.Fatalf("prewarmed vector %d minted %d, want a hit", i, got)
				}
			}
			if got := mints(b); got != depth {
				t.Fatalf("prewarmed SUPI's first miss minted %d, want %d", got, depth)
			}

			// Resync forgets the SUPI.
			h.resync(t, a, []byte{0, 0, 0, 9, 0, 0})
			if got := mints(a); got != first {
				t.Fatalf("post-resync miss minted %d, want %d", got, first)
			}

			// Crash invalidation forgets every SUPI.
			h.udm.InvalidateAVPool()
			if got := mints(b); got != first {
				t.Fatalf("post-invalidate miss minted %d, want %d", got, first)
			}
		})
	}

	// The miss schedule of one SUPI at depth 8: first contact mints 2,
	// then every eighth authentication refills.
	h := newPoolHarness(t, 8)
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000000001"}
	h.provision(t, supi)
	var missed []int
	var prev []byte
	for i := 1; i <= 24; i++ {
		m0 := h.udm.AVPoolStats().Misses
		sqn := sqnOf(t, h.auth(t, supi))
		if prev != nil && bytes.Compare(sqn, prev) <= 0 {
			t.Fatalf("auth %d: SQN %x not above previous %x", i, sqn, prev)
		}
		prev = sqn
		if m := h.udm.AVPoolStats().Misses; m != m0 {
			missed = append(missed, i)
		}
	}
	if want := []int{1, 3, 11, 19}; !slices.Equal(missed, want) {
		t.Fatalf("24 authentications missed at %v, want %v", missed, want)
	}
}

func TestAVPoolDeterministicUnderFixedSeed(t *testing.T) {
	run := func() ([]GenerateAuthDataResponse, AVPoolStats) {
		h := newPoolHarness(t, 4)
		supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000000001"}
		h.provision(t, supi)
		var out []GenerateAuthDataResponse
		for i := 0; i < 6; i++ {
			out = append(out, h.auth(t, supi))
		}
		return out, h.udm.AVPoolStats()
	}
	a, sa := run()
	b, sb := run()
	if sa != sb {
		t.Fatalf("pool stats diverged: %+v vs %+v", sa, sb)
	}
	for i := range a {
		if a[i].RAND != b[i].RAND || a[i].AUTN != b[i].AUTN {
			t.Fatalf("auth %d diverged between same-seed runs", i)
		}
	}
}

func TestAVPoolDisabledMatchesSeedPath(t *testing.T) {
	// Depth 0 must leave the pool nil — the unpooled path, bit-identical
	// to the seed, with zeroed stats.
	h := newHarness(t)
	if h.udm.pool != nil {
		t.Fatal("pool allocated with AVPoolDepth 0")
	}
	if s := h.udm.AVPoolStats(); s != (AVPoolStats{}) {
		t.Fatalf("disabled pool stats = %+v, want zero", s)
	}
	h.udm.InvalidateAVPool() // must not panic
}

// TestPrewarmEliminatesColdStartMisses covers the PR-6 cold-start fix:
// without prewarm every SUPI's first authentication is one synchronous
// refill (201 misses for 200 UEs in the PR-5 bench); after PrewarmAVPool
// the same traffic is all hits.
func TestPrewarmEliminatesColdStartMisses(t *testing.T) {
	const depth = 4
	h := newPoolHarness(t, depth)
	supis := []suci.SUPI{
		{MCC: "001", MNC: "01", MSIN: "0000000001"},
		{MCC: "001", MNC: "01", MSIN: "0000000002"},
		{MCC: "001", MNC: "01", MSIN: "0000000003"},
	}
	names := make([]string, len(supis))
	for i, s := range supis {
		h.provision(t, s)
		names[i] = s.String()
	}

	if err := h.udm.PrewarmAVPool(context.Background(), names, testSNN); err != nil {
		t.Fatalf("PrewarmAVPool: %v", err)
	}
	s := h.udm.AVPoolStats()
	if s.Prewarmed != uint64(depth*len(supis)) || s.Pooled != depth*len(supis) {
		t.Fatalf("after prewarm: %+v, want %d prewarmed and pooled", s, depth*len(supis))
	}
	if s.Misses != 0 || s.Hits != 0 {
		t.Fatalf("prewarm counted as traffic: %+v", s)
	}

	// Every first-contact authentication is now a pool hit.
	for _, supi := range supis {
		h.auth(t, supi)
	}
	s = h.udm.AVPoolStats()
	if s.Misses != 0 {
		t.Fatalf("cold-start misses survived prewarm: %+v", s)
	}
	if s.Hits != uint64(len(supis)) {
		t.Fatalf("hits = %d, want %d: %+v", s.Hits, len(supis), s)
	}
	if s.Pooled != (depth-1)*len(supis) {
		t.Fatalf("pooled = %d, want %d: %+v", s.Pooled, (depth-1)*len(supis), s)
	}
}

// TestPrewarmDisabledPool verifies the explicit error when the pool is
// off — a silent no-op would make a misconfigured bench look warmed.
func TestPrewarmDisabledPool(t *testing.T) {
	h := newHarness(t) // no AVPoolDepth: pool disabled
	if err := h.udm.PrewarmAVPool(context.Background(), []string{"imsi-001010000000001"}, testSNN); err == nil {
		t.Fatalf("PrewarmAVPool on disabled pool succeeded")
	}
}

// taggedAVs returns n vectors whose every byte is the vector's tag,
// tags from first up: a stand-in for SQN order the pool must keep.
func taggedAVs(first byte, n int) []paka.UDMGenerateAVResponse {
	vectors := make([]paka.UDMGenerateAVResponse, n)
	for i := range vectors {
		paka.AVInto(bytes.Repeat([]byte{first + byte(i)}, paka.AVBackingBytes), &vectors[i])
	}
	return vectors
}

// poolSUPI keys the pool-only tests' ring.
var poolSUPI, _ = codec.ParseSUPI("imsi-001010000000001")

// TestAVPoolServedVectorOwnsItsBytes: take copies the banked vector into
// the caller's, so neither the minted batch nor the served copy aliases
// the ring, and it allocates nothing.
func TestAVPoolServedVectorOwnsItsBytes(t *testing.T) {
	p := newAVPool(8)
	minted := taggedAVs(1, 8)
	p.fill(poolSUPI, minted)
	minted[1].RAND[0] = 0xee // the batch's backing is the caller's again

	var first, next paka.UDMGenerateAVResponse
	p.take(poolSUPI, &first)
	for i := range first.RAND {
		first.RAND[i] = 0xff
	}
	p.take(poolSUPI, &next)
	if want := taggedAVs(2, 1)[0]; next != want {
		t.Fatalf("second vector reads %x, want %x", next, want)
	}
	var av paka.UDMGenerateAVResponse
	if allocs := testing.AllocsPerRun(4, func() { p.take(poolSUPI, &av) }); allocs != 0 {
		t.Fatalf("take allocates %.1f times, want 0", allocs)
	}
}

// TestAVPoolFillKeepsOrderAcrossRefill: a refill onto a part-drained ring
// serves the old vectors first and drops the newest beyond the depth.
func TestAVPoolFillKeepsOrderAcrossRefill(t *testing.T) {
	p := newAVPool(4)
	take := func() (av paka.UDMGenerateAVResponse, count int) {
		count = p.take(poolSUPI, &av)
		return av, count
	}
	p.fill(poolSUPI, taggedAVs(1, 4))
	for _, want := range []byte{1, 2} {
		if av, _ := take(); av.RAND[0] != want {
			t.Fatalf("served tag %d, want %d", av.RAND[0], want)
		}
	}
	p.fill(poolSUPI, taggedAVs(5, 4)) // 3, 4 are still banked: 5, 6 fit, 7, 8 do not
	for _, want := range []byte{3, 4, 5, 6} {
		if av, count := take(); count != 0 || av.KAUSF[31] != want {
			t.Fatalf("served %x (miss count %d), want tag %d", av, count, want)
		}
	}
	if av, count := take(); av != (paka.UDMGenerateAVResponse{}) || count != 4 {
		t.Fatalf("drained ring served %x, asked for %d; want a miss minting 4", av, count)
	}
}
