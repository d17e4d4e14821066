package sgx

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"shield5g/internal/simclock"
)

// ErrRingClosed reports a submission against a ring whose dispatcher has
// been stopped (enclave teardown or crash-restart). Pending jobs are
// completed exactly once with this error so callers can retry against the
// rebuilt module.
var ErrRingClosed = errors.New("sgx: switchless ring closed")

// DefaultRingSize is the slot count of a switchless submission ring. It
// must be a power of two; 64 slots comfortably covers the gNB driver's
// worker counts while keeping the ring inside a few cache lines per slot.
const DefaultRingSize = 64

type switchlessKey struct{}

// WithSwitchless marks ctx's request as negotiated for the switchless
// submission ring. The gNB driver attaches it when MassOptions.Switchless
// is set; the gramine instance routes marked requests through the ring
// when the module was launched with Manifest.SwitchlessECalls.
func WithSwitchless(ctx context.Context) context.Context {
	if on, ok := ctx.Value(switchlessKey{}).(bool); ok && on {
		return ctx
	}
	return context.WithValue(ctx, switchlessKey{}, true)
}

// SwitchlessFrom reports whether ctx's request negotiated the switchless
// fast path.
func SwitchlessFrom(ctx context.Context) bool {
	on, ok := ctx.Value(switchlessKey{}).(bool)
	return ok && on
}

// RingJob is one unit of in-enclave work submitted through a Ring. Execute
// runs on the dispatcher's resident thread; implementations rebind it to
// the request's account and jitter stream (Thread.BindRequest) so costs
// land on the submitting request.
type RingJob interface {
	Execute(t *Thread) error
}

// ringEntry pairs a job with its completion channel. Entries are pooled:
// the channel is allocated once per entry and reused across submissions,
// keeping the steady-state submit path allocation-free.
type ringEntry struct {
	job  RingJob
	done chan error
}

// ringSlot is one cache-line-padded ring cell. seq is the Vyukov sequence
// word: slot free when seq == pos, published when seq == pos+1, consumed
// when seq == pos+size.
type ringSlot struct {
	seq   atomic.Uint64
	entry *ringEntry
	_     [48]byte // pad to a 64-byte cache line; no false sharing between slots
}

// Ring dispatcher states.
const (
	ringRunning int32 = iota + 1
	ringClosed
)

// realSpinPolls bounds the dispatcher's wall-clock spinning between parks.
// This is real-CPU politeness only (the goroutine yields every iteration
// and parks after this many empty polls); the deterministic virtual spin
// budget is costmodel.SwitchlessSpinPolls on the virtual axis.
const realSpinPolls = 256

// Ring is a fixed-size shared-memory MPSC submission ring served by one
// dedicated in-enclave dispatcher thread — the HotCalls-style switchless
// ECALL path. Producers (gNB workers, session machinery) publish jobs with
// a seqlock-style two-phase write (claim the slot by CAS on tail, publish
// by storing seq); the single dispatcher consumes in order and executes
// each job on its resident TCS, so steady-state requests cross the enclave
// boundary with zero EENTER/EEXIT.
//
// Wake-up is adaptive spin-then-doorbell, accounted on two decoupled axes:
//
//   - Real: after realSpinPolls empty polls the dispatcher goroutine parks
//     on a buffered wake channel; the next Submit sends a non-blocking
//     wake. This keeps the host CPU polite but is timing-dependent, so it
//     never charges virtual cost.
//   - Virtual (deterministic): a submission pays a doorbell — one ECALL
//     round trip plus SwitchlessDoorbellCycles, counted on the enclave's
//     EENTER/EEXIT/ECALL stats — if and only if the ring was idle and the
//     virtual clock has passed the dispatcher's park deadline
//     (last activity + SwitchlessSpinBudget). Otherwise it pays only the
//     enqueue cost plus one poll share. Both sides of the decision read
//     the platform's virtual clock, so sequential same-seed runs replay
//     bit-identically.
type Ring struct {
	enclave *Enclave
	t       *Thread // dispatcher's resident in-enclave thread
	slots   []ringSlot
	mask    uint64

	tail atomic.Uint64 // next slot producers claim
	head atomic.Uint64 // next slot the consumer reads (atomic for Occupancy)

	state      atomic.Int32
	parked     atomic.Bool
	wake       chan struct{} // doorbell; buffered so a wake is never lost
	stopc      chan struct{} // closed by Close to stop the dispatcher
	stopped    chan struct{} // closed by the dispatcher on exit
	submitters atomic.Int64  // producers past the open-check, for drain

	entries sync.Pool

	// Virtual doorbell accounting. acctMu orders the idle/park-deadline
	// decision; in sequential mode acquisition order equals program order,
	// so the charged costs are deterministic.
	acctMu   sync.Mutex
	inflight int
	vParkAt  simclock.Cycles

	nSubmitted    atomic.Uint64
	nCompleted    atomic.Uint64
	nDoorbells    atomic.Uint64
	nParks        atomic.Uint64
	nBackpressure atomic.Uint64
	nDrained      atomic.Uint64
}

// RingStats is a point-in-time copy of a ring's counters.
type RingStats struct {
	// Submitted and Completed count jobs through the ring; after Close
	// they are equal (drained jobs complete with ErrRingClosed and count
	// under Drained, not Completed).
	Submitted, Completed uint64
	// Doorbells counts submissions that paid the wake ECALL on the
	// virtual axis.
	Doorbells uint64
	// Parks counts real dispatcher parks (timing-dependent; diagnostics
	// only, never part of a deterministic assertion).
	Parks uint64
	// Backpressure counts submissions that found the ring full and waited.
	Backpressure uint64
	// Drained counts jobs completed with ErrRingClosed at teardown.
	Drained uint64
}

// NewRing starts a switchless submission ring of the given slot count
// (rounded up to a power of two; 0 selects DefaultRingSize) served by a
// dispatcher running on t, a resident thread the caller entered with
// EnterResident. The caller keeps ownership of t and must LeaveResident
// after Close returns.
func NewRing(e *Enclave, t *Thread, size int) *Ring {
	if size <= 0 {
		size = DefaultRingSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	r := &Ring{
		enclave: e,
		t:       t,
		slots:   make([]ringSlot, n),
		mask:    uint64(n - 1),
		wake:    make(chan struct{}, 1),
		stopc:   make(chan struct{}),
		stopped: make(chan struct{}),
	}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	r.entries.New = func() any { return &ringEntry{done: make(chan error, 1)} }
	r.state.Store(ringRunning)
	go r.dispatch()
	return r
}

// Submit publishes job into the ring and blocks until the dispatcher has
// executed it, returning the job's error. The submission itself is
// allocation-free in steady state: entries are pooled and the job is a
// caller-pooled struct behind the RingJob interface.
//
//shieldlint:hotpath
func (r *Ring) Submit(ctx context.Context, job RingJob) error {
	r.submitters.Add(1)
	defer r.submitters.Add(-1)
	if r.state.Load() != ringRunning {
		return ErrRingClosed
	}
	ent := r.entries.Get().(*ringEntry)
	ent.job = job
	// Account before publishing: once the entry is visible the dispatcher
	// may run it, and a job that starts ahead of its own submission charge
	// would see a clock (doorbell decision) and an account (the job's cost
	// windows) that depend on goroutine timing.
	r.accountSubmit(ctx)
	if err := r.enqueue(ent); err != nil {
		r.accountDone()
		ent.job = nil
		r.entries.Put(ent)
		return err
	}
	r.nSubmitted.Add(1)
	r.kick()
	err := <-ent.done
	r.accountDone()
	ent.job = nil
	r.entries.Put(ent)
	return err
}

// Occupancy reports the number of published-but-not-yet-dispatched jobs.
// The UDM's AV mint reads it to widen batches opportunistically from
// cross-worker concurrency.
func (r *Ring) Occupancy() int {
	t := r.tail.Load()
	h := r.head.Load()
	if t <= h {
		return 0
	}
	return int(t - h)
}

// Stats snapshots the ring counters.
func (r *Ring) Stats() RingStats {
	return RingStats{
		Submitted:    r.nSubmitted.Load(),
		Completed:    r.nCompleted.Load(),
		Doorbells:    r.nDoorbells.Load(),
		Parks:        r.nParks.Load(),
		Backpressure: r.nBackpressure.Load(),
		Drained:      r.nDrained.Load(),
	}
}

// Close stops the dispatcher and drains the ring: every published job is
// completed exactly once — already-dispatched jobs with their own result,
// the rest with ErrRingClosed — and late submitters get ErrRingClosed
// without publishing. Close is idempotent and returns once the ring is
// quiescent; the dispatcher's resident thread is then the caller's to
// release.
func (r *Ring) Close() {
	if !r.state.CompareAndSwap(ringRunning, ringClosed) {
		<-r.stopped
		return
	}
	close(r.stopc)
	<-r.stopped
	// The dispatcher drained on its way out, but a producer that passed
	// the open-check may still be publishing; keep draining until every
	// such submitter has unblocked and the ring is empty.
	for r.submitters.Load() > 0 || r.Occupancy() > 0 {
		r.drain()
		runtime.Gosched()
	}
}

// enqueue claims a slot by CAS on tail and publishes the entry by storing
// the slot sequence — the seqlock-style two-phase write. A full ring
// applies backpressure: the producer yields until the dispatcher frees a
// slot or the ring closes.
//
//shieldlint:hotpath
func (r *Ring) enqueue(ent *ringEntry) error {
	waited := false
	for {
		pos := r.tail.Load()
		slot := &r.slots[pos&r.mask]
		seq := slot.seq.Load()
		switch d := int64(seq) - int64(pos); {
		case d == 0:
			if r.tail.CompareAndSwap(pos, pos+1) {
				slot.entry = ent
				slot.seq.Store(pos + 1)
				return nil
			}
		case d < 0:
			// Full: the consumer has not yet freed this slot.
			if r.state.Load() != ringRunning {
				return ErrRingClosed
			}
			if !waited {
				waited = true
				r.nBackpressure.Add(1)
			}
			runtime.Gosched()
		default:
			// Lost the claim race; reload tail.
			runtime.Gosched()
		}
	}
}

// dequeue pops the next published entry. Single-consumer: only the
// dispatcher (and, after it exits, Close's drain) may call it.
func (r *Ring) dequeue() *ringEntry {
	pos := r.head.Load()
	slot := &r.slots[pos&r.mask]
	if slot.seq.Load() != pos+1 {
		return nil
	}
	ent := slot.entry
	slot.entry = nil
	slot.seq.Store(pos + uint64(len(r.slots)))
	r.head.Store(pos + 1)
	return ent
}

// kick delivers the real (timing-axis) wake: a non-blocking send on the
// buffered doorbell channel whenever the dispatcher has published intent
// to park. Sequentially consistent atomics make the publish/park handoff
// lose-free: if the dispatcher's pre-park recheck missed this entry, its
// parked store is visible to our load, so the wake lands in the buffer.
func (r *Ring) kick() {
	if r.parked.Load() {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
}

// accountSubmit charges the submission on the deterministic virtual axis:
// every submission pays the enqueue cost; a submission that finds the
// dispatcher virtually parked (ring idle past the spin budget) pays the
// doorbell — one ECALL round trip, counted on the enclave transition stats
// — and the rest pay one poll share for the pickup probe.
func (r *Ring) accountSubmit(ctx context.Context) {
	e := r.enclave
	m := e.platform.model
	now := e.platform.clock.Elapsed()
	if at, ok := simclock.ArrivalFrom(ctx); ok && at > now {
		now = at
	}
	cost := m.SwitchlessEnqueueCycles
	r.acctMu.Lock()
	doorbell := r.inflight == 0 && now >= r.vParkAt
	r.inflight++
	if deadline := now + m.SwitchlessSpinBudget(); deadline > r.vParkAt {
		r.vParkAt = deadline
	}
	r.acctMu.Unlock()
	if doorbell {
		r.nDoorbells.Add(1)
		e.stats.EENTER.Add(1)
		e.stats.EEXIT.Add(1)
		e.stats.ECALLs.Add(1)
		cost += m.SwitchlessDoorbellCycles + m.ECALLRoundTrip()
	} else {
		cost += m.SwitchlessPollCycles
	}
	e.platform.charge(simclock.AccountFrom(ctx), cost)
}

// accountDone closes the virtual bracket opened by accountSubmit: the
// dispatcher keeps spinning for one budget past its last completed job
// before virtually parking.
func (r *Ring) accountDone() {
	m := r.enclave.platform.model
	now := r.enclave.platform.clock.Elapsed()
	r.acctMu.Lock()
	r.inflight--
	if deadline := now + m.SwitchlessSpinBudget(); deadline > r.vParkAt {
		r.vParkAt = deadline
	}
	r.acctMu.Unlock()
}

// dispatch is the dispatcher loop: poll, execute, spin briefly, park.
// Parking is two-phase (publish intent, recheck, block) so a concurrent
// publish can never be lost. The loop yields on every empty poll — its
// spin budget is the costmodel's, never a wall timer.
//
//shieldlint:hotpath
func (r *Ring) dispatch() {
	defer close(r.stopped)
	empty := 0
	for {
		if ent := r.dequeue(); ent != nil {
			empty = 0
			r.run(ent)
			continue
		}
		if r.state.Load() != ringRunning {
			r.drain()
			return
		}
		empty++
		if empty < realSpinPolls {
			runtime.Gosched()
			continue
		}
		r.parked.Store(true)
		if ent := r.dequeue(); ent != nil {
			r.parked.Store(false)
			empty = 0
			r.run(ent)
			continue
		}
		if r.state.Load() != ringRunning {
			r.parked.Store(false)
			r.drain()
			return
		}
		r.nParks.Add(1)
		select {
		case <-r.wake:
		case <-r.stopc:
		}
		r.parked.Store(false)
		empty = 0
	}
}

// run executes one job on the dispatcher's resident thread and completes
// it. The done channel is buffered, so completion never blocks the
// dispatcher on a slow receiver.
func (r *Ring) run(ent *ringEntry) {
	err := ent.job.Execute(r.t)
	r.nCompleted.Add(1)
	ent.done <- err
}

// drain completes every published entry with ErrRingClosed. Only the
// single consumer of the moment (dispatcher on exit, then Close) calls it,
// so each job completes exactly once.
func (r *Ring) drain() {
	for {
		ent := r.dequeue()
		if ent == nil {
			return
		}
		r.nDrained.Add(1)
		ent.done <- ErrRingClosed
	}
}
