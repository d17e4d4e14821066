package udm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"shield5g/internal/paka"
)

// avPool is the UDM's authentication-vector precomputation pool: a
// per-SUPI FIFO ring of pre-generated HE AVs, each banked as one 80-byte
// record in a ring allocated once per refill. A miss mints a batch
// through one boundary crossing (GenerateAVBatch), serves the first vector
// and banks the rest, so subsequent authentications for the SUPI skip the
// enclave entirely. Every pooled vector was minted with its
// own UDR-advanced SQN, and rings are FIFO, so consumption preserves
// sequence-number order (TS 33.102 §6.3).
//
// First contact banks one: a miss for a SUPI the pool has never minted
// for mints min(2, depth) — the vector it serves and the one its next
// authentication needs, not depth-1 vectors for a UE that may never come
// back — and every later miss mints the whole depth. "Minted before" is
// the SUPI's key in rings: an emptied ring keeps its key with a nil
// value, fill and so PrewarmAVPool set it, and resync and crash
// invalidation delete it.
//
// The refill is synchronous on the triggering request — deterministic
// under a fixed seed, which is what lets same-seed replays produce
// identical hit/miss counts.
type avPool struct {
	depth int // ring capacity per SUPI, and vectors minted per steady-state refill

	mu    sync.Mutex
	rings map[string][]avRecord // key present: minted for before

	hits        atomic.Uint64
	misses      atomic.Uint64
	refills     atomic.Uint64
	invalidated atomic.Uint64
	prewarmed   atomic.Uint64
}

// newAVPool builds a pool with the given ring depth (≥ 1).
func newAVPool(depth int) *avPool {
	return &avPool{
		depth: depth,
		rings: make(map[string][]avRecord),
	}
}

// avRecord is one banked vector's four fields back to back in
// paka.AVInto's layout: RAND‖AUTN‖XRES*‖K_AUSF.
type avRecord [paka.AVBackingBytes]byte

// servedAV is what take hands out: a copy of the banked record and the
// response whose fields slice it, in one allocation, so the caller owns
// the vector outright and never aliases the ring.
type servedAV struct {
	rec  avRecord
	resp paka.UDMGenerateAVResponse
}

// take pops the oldest pooled vector for supi, counting the hit or miss.
// On a miss it returns nil and how many vectors the refill should mint:
// min(2, depth) on first contact, depth for a SUPI minted for before.
func (p *avPool) take(supi string) (*paka.UDMGenerateAVResponse, int) {
	p.mu.Lock()
	ring, seen := p.rings[supi]
	if len(ring) == 0 {
		p.mu.Unlock()
		p.misses.Add(1)
		if seen {
			return nil, p.depth
		}
		return nil, min(2, p.depth)
	}
	av := &servedAV{rec: ring[0]}
	if len(ring) == 1 {
		p.rings[supi] = nil // release the backing, remember the SUPI
	} else {
		p.rings[supi] = ring[1:]
	}
	p.mu.Unlock()
	p.hits.Add(1)
	paka.AVInto(av.rec[:], &av.resp)
	return &av.resp, 0
}

// fill banks freshly minted vectors for supi, oldest SQN first, dropping
// overflow beyond the ring depth, and marks supi as minted for. Counts
// one refill.
func (p *avPool) fill(supi string, vectors []paka.UDMGenerateAVResponse) {
	p.refills.Add(1)
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.rings[supi]
	// Keep the oldest SQNs: dropping from the tail wastes crypto but never
	// reorders the sequence numbers a UE will see.
	ring := make([]avRecord, min(len(old)+len(vectors), p.depth))
	n := copy(ring, old)
	for i, av := range vectors[:len(ring)-n] {
		rec := ring[n+i][:]
		copy(rec[0:16], av.RAND)
		copy(rec[16:32], av.AUTN)
		copy(rec[32:48], av.XRESStar)
		copy(rec[48:80], av.KAUSF)
	}
	p.rings[supi] = ring
}

// invalidate discards supi's pooled vectors (SQN resynchronisation
// rebased the counter; pre-rebase vectors would fail the UE's range
// check) and forgets supi, so its next miss mints as a first contact.
func (p *avPool) invalidate(supi string) {
	p.mu.Lock()
	n := len(p.rings[supi])
	delete(p.rings, supi)
	p.mu.Unlock()
	p.invalidated.Add(uint64(n))
}

// invalidateAll discards every pooled vector and forgets every SUPI —
// the enclave crashed or restarted, and vectors minted before the crash
// must never be served afterwards.
func (p *avPool) invalidateAll() {
	p.mu.Lock()
	var n int
	for supi, ring := range p.rings {
		n += len(ring)
		delete(p.rings, supi)
	}
	p.mu.Unlock()
	p.invalidated.Add(uint64(n))
}

// pooled reports the current number of banked vectors.
func (p *avPool) pooled() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int
	for _, ring := range p.rings {
		n += len(ring)
	}
	return n
}

// AVPoolStats is a snapshot of the pool counters.
type AVPoolStats struct {
	// Hits counts authentications served from the pool.
	Hits uint64
	// Misses counts authentications that triggered a synchronous refill.
	Misses uint64
	// Refills counts batch mint operations (boundary crossings).
	Refills uint64
	// Invalidated counts vectors discarded by resync or crash-restart.
	Invalidated uint64
	// Prewarmed counts vectors banked ahead of traffic by PrewarmAVPool:
	// cold-start fills that would otherwise surface as one first-contact
	// miss per SUPI.
	Prewarmed uint64
	// Pooled is the number of vectors currently banked.
	Pooled int
}

// AVPoolStats snapshots the pool counters; zero when the pool is
// disabled.
func (u *UDM) AVPoolStats() AVPoolStats {
	if u.pool == nil {
		return AVPoolStats{}
	}
	return AVPoolStats{
		Hits:        u.pool.hits.Load(),
		Misses:      u.pool.misses.Load(),
		Refills:     u.pool.refills.Load(),
		Invalidated: u.pool.invalidated.Load(),
		Prewarmed:   u.pool.prewarmed.Load(),
		Pooled:      u.pool.pooled(),
	}
}

// PrewarmAVPool fills each given SUPI's ring to the pool depth before
// traffic arrives, eliminating the one-synchronous-refill-per-SUPI cold
// start (201 misses for 200 UEs in the PR-5 bench). Each SUPI costs one
// UDR batch round trip and one boundary crossing; counters record the
// banked vectors under Prewarmed, not as misses. The subscribers must
// already be provisioned in the UDR and the execution environment. No-op
// error when the pool is disabled.
func (u *UDM) PrewarmAVPool(ctx context.Context, supis []string, snn string) error {
	if u.pool == nil {
		return fmt.Errorf("udm: AV pool disabled, nothing to prewarm")
	}
	for _, supi := range supis {
		items, err := u.avRequestBatch(ctx, supi, snn, u.pool.depth)
		if err != nil {
			return fmt.Errorf("udm: prewarm %s: %w", supi, err)
		}
		vectors, err := u.generateBatch(ctx, items)
		if err != nil {
			return fmt.Errorf("udm: prewarm %s: %w", supi, err)
		}
		u.pool.fill(supi, vectors)
		u.pool.prewarmed.Add(uint64(len(vectors)))
	}
	return nil
}

// InvalidateAVPool discards every pooled vector. Deploy calls it when the
// eUDM module crash-restarts: the pool must refill from the fresh enclave
// rather than serve vectors minted before the crash.
func (u *UDM) InvalidateAVPool() {
	if u.pool != nil {
		u.pool.invalidateAll()
	}
}
