package sgx

import (
	"context"
	"errors"
	"sync"

	"shield5g/internal/simclock"
)

// ErrRingClosed reports a submission against a ring that has been closed
// (enclave teardown or crash-restart). Jobs admitted before Close but not
// yet started are completed exactly once with this error so callers can
// retry against the rebuilt module.
var ErrRingClosed = errors.New("sgx: switchless ring closed")

// DefaultRingSize is the slot count of a switchless submission ring: the
// in-flight depth past which a submission counts as backpressured. 64
// comfortably covers the gNB driver's worker counts.
const DefaultRingSize = 64

// RingJob is one unit of in-enclave work submitted through a Ring. Execute
// runs on the dispatcher's resident thread; implementations rebind it to
// the request's account and jitter stream (Thread.BindRequest) so costs
// land on the submitting request.
type RingJob interface {
	Execute(t *Thread) error
}

// Ring models a fixed-size shared-memory submission ring served by one
// dedicated in-enclave dispatcher thread — the HotCalls-style switchless
// ECALL path: steady-state requests cross the enclave boundary with zero
// EENTER/EEXIT. Like every other crossing in this package it is a cost
// model, not a mechanism: a submission charges what the hardware path
// would cost, then runs the job on the submitter's goroutine under the
// dispatcher's lock (one TCS: one job at a time).
//
// Wake-up is adaptive spin-then-doorbell on the virtual clock: a
// submission pays a doorbell — one ECALL round trip plus
// SwitchlessDoorbellCycles, counted on the enclave's EENTER/EEXIT/ECALL
// stats — if and only if the ring was idle and the virtual clock has
// passed the dispatcher's park deadline (last activity +
// SwitchlessSpinBudget). Otherwise it pays only the enqueue cost plus one
// poll share. Both sides of the decision read the platform's virtual
// clock, so sequential same-seed runs replay bit-identically.
type Ring struct {
	enclave *Enclave
	t       *Thread // dispatcher's resident in-enclave thread
	size    int

	// dispatcher serializes jobs on t.
	dispatcher sync.Mutex

	// mu guards everything below. In sequential mode acquisition order
	// equals program order, so the charged costs and the counters are
	// deterministic.
	mu       sync.Mutex
	quiet    sync.Cond // inflight reached zero on a closed ring
	closed   bool
	inflight int             // admitted and not yet returned
	vParkAt  simclock.Cycles // virtual deadline past which the dispatcher parks
	stats    RingStats
}

// RingStats is a point-in-time copy of a ring's counters.
type RingStats struct {
	// Submitted counts admitted jobs; each ends up under exactly one of
	// Completed (it ran) or Drained.
	Submitted, Completed uint64
	// Doorbells counts submissions that paid the wake ECALL on the
	// virtual axis.
	Doorbells uint64
	// Parks counts virtual dispatcher parks, one per doorbell that ended
	// it: always equal to Doorbells.
	Parks uint64
	// Backpressure counts submissions that found the ring's size or more
	// jobs already in flight.
	Backpressure uint64
	// Drained counts jobs completed with ErrRingClosed at teardown.
	Drained uint64
}

// NewRing returns a switchless submission ring of the given slot count
// (0 selects DefaultRingSize) whose jobs run on t, a resident thread the
// caller entered with EnterResident. The caller keeps ownership of t and
// must LeaveResident after Close returns.
func NewRing(e *Enclave, t *Thread, size int) *Ring {
	if size <= 0 {
		size = DefaultRingSize
	}
	r := &Ring{enclave: e, t: t, size: size}
	r.quiet.L = &r.mu
	return r
}

// Submit charges the submission, runs job on the dispatcher's thread once
// every job admitted ahead of it is done, and returns the job's error —
// or ErrRingClosed, without running it, when the ring closed first.
//
//shieldlint:hotpath
func (r *Ring) Submit(ctx context.Context, job RingJob) error {
	if !r.accountSubmit(ctx) {
		return ErrRingClosed
	}
	r.dispatcher.Lock()
	r.mu.Lock()
	drained := r.closed
	r.mu.Unlock()
	err := ErrRingClosed
	if !drained {
		err = job.Execute(r.t)
	}
	r.dispatcher.Unlock()
	r.accountDone(drained)
	return err
}

// Stats snapshots the ring counters.
func (r *Ring) Stats() RingStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.Parks = st.Doorbells // a virtual park is only ever observed by the doorbell that ends it
	return st
}

// Close shuts the ring: the running job finishes with its own result,
// every other admitted job completes exactly once with ErrRingClosed, and
// late submitters get ErrRingClosed without being admitted. Close is
// idempotent and returns once no admitted submission is left; the
// dispatcher's resident thread is then the caller's to release.
func (r *Ring) Close() {
	r.mu.Lock()
	r.closed = true
	for r.inflight > 0 {
		r.quiet.Wait()
	}
	r.mu.Unlock()
}

// accountSubmit admits the submission unless the ring is closed and
// charges it on the deterministic virtual axis: every submission pays the
// enqueue cost; one that finds the dispatcher virtually parked (ring idle
// past the spin budget) pays the doorbell — one ECALL round trip, counted
// on the enclave transition stats — and the rest pay one poll share for
// the pickup probe.
func (r *Ring) accountSubmit(ctx context.Context) bool {
	e := r.enclave
	m := e.platform.env.Model
	now := e.platform.env.Clock.Elapsed()
	if at, ok := simclock.ArrivalFrom(ctx); ok && at > now {
		now = at
	}
	cost := m.SwitchlessEnqueueCycles
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return false
	}
	doorbell := r.inflight == 0 && now >= r.vParkAt
	if r.inflight >= r.size {
		r.stats.Backpressure++
	}
	r.inflight++
	r.stats.Submitted++
	if deadline := now + m.SwitchlessSpinBudget(); deadline > r.vParkAt {
		r.vParkAt = deadline
	}
	if doorbell {
		r.stats.Doorbells++
	}
	r.mu.Unlock()
	if doorbell {
		e.stats.EENTER.Add(1)
		e.stats.EEXIT.Add(1)
		e.stats.ECALLs.Add(1)
		cost += m.SwitchlessDoorbellCycles + m.ECALLRoundTrip()
	} else {
		cost += m.SwitchlessPollCycles
	}
	e.platform.env.Charge(ctx, cost)
	return true
}

// accountDone closes the virtual bracket opened by accountSubmit: the
// dispatcher keeps spinning for one budget past its last finished job
// before virtually parking.
func (r *Ring) accountDone(drained bool) {
	m := r.enclave.platform.env.Model
	now := r.enclave.platform.env.Clock.Elapsed()
	r.mu.Lock()
	if drained {
		r.stats.Drained++
	} else {
		r.stats.Completed++
	}
	r.inflight--
	if deadline := now + m.SwitchlessSpinBudget(); deadline > r.vParkAt {
		r.vParkAt = deadline
	}
	if r.closed && r.inflight == 0 {
		r.quiet.Broadcast()
	}
	r.mu.Unlock()
}
