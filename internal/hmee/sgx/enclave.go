package sgx

import (
	"context"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"shield5g/internal/costmodel"
	"shield5g/internal/sbi/codec"
	"shield5g/internal/simclock"
)

// Enclave lifecycle errors.
var (
	// ErrNotInitialized reports use of an enclave before EINIT.
	ErrNotInitialized = errors.New("sgx: enclave not initialized")
	// ErrDestroyed reports use of a torn-down enclave.
	ErrDestroyed = errors.New("sgx: enclave destroyed")
	// ErrEPCExhausted reports that committing the enclave would exceed
	// the platform's physical EPC.
	ErrEPCExhausted = errors.New("sgx: physical EPC exhausted")
	// ErrTooManyThreads reports that all TCS slots are busy.
	ErrTooManyThreads = errors.New("sgx: no free thread control structure")
)

// EnclaveConfig describes one enclave to build. It mirrors the knobs the
// paper sets through the Gramine manifest.
type EnclaveConfig struct {
	// Name identifies the enclave in reports.
	Name string
	// SizeBytes is the committed EPC size (sgx.enclave_size). The paper
	// uses 512 MiB for the P-AKA modules and sweeps up to 8 GiB.
	SizeBytes uint64
	// MaxThreads is the TCS count (sgx.max_threads). Gramine needs 3
	// helper threads, so the paper's minimum stable value is 4.
	MaxThreads int
	// Preheat pre-faults all heap pages at initialization
	// (sgx.preheat_enclave), trading load time for stable operation.
	Preheat bool
	// Switchless reserves one TCS for a resident ring dispatcher thread
	// serving shared-memory call submission (see Ring). It changes the
	// enclave's runtime surface — an always-resident thread polling
	// untrusted memory — so it is folded into the measurement.
	Switchless bool
	// TrustedFiles are measured into the enclave identity at build time.
	TrustedFiles []MeasuredFile
}

func (c *EnclaveConfig) validate() error {
	if c.SizeBytes == 0 {
		return errors.New("sgx: enclave size must be positive")
	}
	if c.MaxThreads <= 0 {
		return errors.New("sgx: max threads must be positive")
	}
	return nil
}

// State is the enclave lifecycle state.
type State int

// Enclave lifecycle states.
const (
	StateBuilt State = iota + 1
	StateDestroyed
)

// Enclave is one simulated SGX enclave.
type Enclave struct {
	id       uint64
	platform *Platform
	cfg      EnclaveConfig

	measurement [32]byte    // MRENCLAVE analogue
	seal        cipher.AEAD // sealing AEAD, keyed by platform and measurement
	loadCycles  simclock.Cycles

	tcs chan struct{} // TCS slots; acquired per in-enclave thread

	// events is the enclave's sink of the SGX counters the paper collects
	// through Gramine's stats interface (Table III); every site that
	// counts one also counts it on the paying request's account.
	events simclock.Events

	// state and faulted are atomics so the request hot path (liveness
	// check, demand-paging claim) never serialises concurrent threads.
	state   atomic.Int32
	faulted atomic.Uint64 // heap pages already faulted in

	secretMu sync.RWMutex
	secrets  map[codec.SUPI][16]byte // shielded in-enclave keys (plaintext inside)
}

// Build constructs, measures and initializes an enclave, charging the full
// ECREATE/EADD/EEXTEND/EINIT (and optional preheat) cost. This is the
// operation behind the paper's Fig. 7 enclave load times.
func (p *Platform) Build(ctx context.Context, cfg EnclaveConfig) (*Enclave, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.epcUsed+cfg.SizeBytes > p.epcCapacity {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: committed %d + requested %d > capacity %d",
			ErrEPCExhausted, p.epcUsed, cfg.SizeBytes, p.epcCapacity)
	}
	p.epcUsed += cfg.SizeBytes
	p.nextID++
	id := p.nextID
	p.mu.Unlock()

	e := &Enclave{
		id:       id,
		platform: p,
		cfg:      cfg,
		tcs:      make(chan struct{}, cfg.MaxThreads),
		secrets:  make(map[codec.SUPI][16]byte),
	}
	e.state.Store(int32(StateBuilt))

	e.measurement = Measure(cfg)
	var fileBytes uint64
	for _, f := range cfg.TrustedFiles {
		fileBytes += f.Size
	}
	e.seal = e.newSealAEAD()

	// Load cost: per-page EADD+EEXTEND over the committed size, trusted
	// file hashing, and preheat pre-faulting. Jitter reproduces the
	// quartile spread of Fig. 7.
	m := p.env.Model
	pages := simclock.Cycles(costmodel.PagesFor(cfg.SizeBytes))
	cost := pages * m.EnclaveBuildPerPage
	cost += simclock.Cycles(fileBytes) * m.TrustedFileHashPerByte
	if cfg.Preheat {
		cost += pages * m.PreheatPerPage
		e.faulted.Store(costmodel.PagesFor(cfg.SizeBytes))
	}
	// Gramine + glibc bootstrap issues several hundred OCALLs while
	// reading the manifest and loading shared libraries, plus a
	// population of one-way entries (signal handling setup, thread stack
	// registration) that never see a matching EEXIT. The constants
	// reproduce the paper's empty-workload baseline of Table III
	// (762 EENTERs / 680 EEXITs for a GSC container with no server).
	const (
		bootstrapOCALLs  = 680
		bootstrapOneWays = 82
	)
	cost += simclock.Cycles(bootstrapOCALLs) * m.OCALLRoundTrip()
	cost += simclock.Cycles(bootstrapOneWays) * m.EENTER
	acct := simclock.AccountFrom(ctx)
	e.events.Count(acct, bootstrapOCALLs, simclock.OCALL, simclock.EEXIT, simclock.EENTER)
	e.events.Count(acct, bootstrapOneWays, simclock.ECALL, simclock.EENTER)

	cost = p.env.Jitter.Scale(cost, 0.012)
	e.loadCycles = cost
	p.env.ChargeTo(acct, cost)

	p.mu.Lock()
	p.enclaves[id] = e
	p.mu.Unlock()
	return e, nil
}

// Name returns the configured enclave name.
func (e *Enclave) Name() string { return e.cfg.Name }

// LoadDuration reports the modelled enclave load time (Fig. 7).
func (e *Enclave) LoadDuration() time.Duration {
	return e.platform.env.Model.Duration(e.loadCycles)
}

// Destroy tears the enclave down, releasing its committed EPC and flushing
// in-enclave secrets (the cache-flush requirement of Key Issue 5).
func (e *Enclave) Destroy() {
	if !e.state.CompareAndSwap(int32(StateBuilt), int32(StateDestroyed)) {
		return
	}
	e.secretMu.Lock()
	clear(e.secrets)
	e.secretMu.Unlock()

	p := e.platform
	p.mu.Lock()
	if _, ok := p.enclaves[e.id]; ok {
		delete(p.enclaves, e.id)
		p.epcUsed -= e.cfg.SizeBytes
	}
	p.mu.Unlock()
}

func (e *Enclave) live() error {
	switch State(e.state.Load()) {
	case StateBuilt:
		return nil
	case StateDestroyed:
		return ErrDestroyed
	default:
		return ErrNotInitialized
	}
}

// Thread models one thread executing inside the enclave. All in-enclave
// work — compute, memory touches, OCALLs — is expressed through it so the
// simulator can charge transition, shielding and paging costs and count
// the same events real hardware would.
type Thread struct {
	enclave *Enclave
	acct    *simclock.Account
	// jitter is the source of this thread's stochastic draws (AEX
	// arrivals, paging pressure): the platform's, or the per-worker stream
	// of the parallel request the thread was bound to.
	jitter *simclock.Jitter
}

// tcsAcquireTimeout bounds how long an entry waits for a TCS slot. The
// wait is wall-clock, not virtual: slot contention is real goroutine
// concurrency between callers, the way threads queue on a busy enclave.
const tcsAcquireTimeout = 30 * time.Second

// acquireTCS claims a TCS slot, blocking until one frees, ctx is
// cancelled, or the bounded wait expires — so high-parallelism callers
// queue instead of failing immediately. Exhaustion and cancellation both
// wrap ErrTooManyThreads.
func (e *Enclave) acquireTCS(ctx context.Context) error {
	select {
	case e.tcs <- struct{}{}:
	default:
		//shieldlint:wallclock goroutines really block here, so the liveness bound must be real time
		timer := time.NewTimer(tcsAcquireTimeout)
		defer timer.Stop()
		select {
		case e.tcs <- struct{}{}:
		case <-ctx.Done():
			return fmt.Errorf("%w: %d busy: %v", ErrTooManyThreads, cap(e.tcs), ctx.Err())
		case <-timer.C:
			return fmt.Errorf("%w: %d busy after %v", ErrTooManyThreads, cap(e.tcs), tcsAcquireTimeout)
		}
	}
	// The enclave may have been torn down while we waited for the slot.
	if err := e.live(); err != nil {
		<-e.tcs
		return err
	}
	return nil
}

// threadPool recycles the threads ECall hands its body: a body runs
// synchronously and retains neither the thread nor anything it points to.
var threadPool = sync.Pool{New: func() any { return new(Thread) }}

// ECall enters the enclave on a free TCS slot, runs fn as the in-enclave
// thread body, and exits. Entry and exit each charge one transition and
// the boundary-crossing costs for the declared argument sizes to the
// account ctx carries. When all slots are busy the entry queues (bounded,
// honouring ctx cancellation) rather than failing outright.
//
// An entry allocates nothing, ctx carrying an account or not: the thread
// fn runs on comes from a pool and goes back when fn returns, so fn must
// not retain it, and fn itself does not escape — a method value of a
// pooled request (gramine's batch crossing) stays on its caller's stack.
func (e *Enclave) ECall(ctx context.Context, argBytes, retBytes int, fn func(*Thread) error) error {
	if err := e.live(); err != nil {
		return err
	}
	if err := e.acquireTCS(ctx); err != nil {
		return err
	}
	defer func() { <-e.tcs }()

	p := e.platform
	acct := simclock.AccountFrom(ctx)
	m := p.env.Model

	e.events.Count(acct, 1, simclock.EENTER, simclock.ECALL)
	p.env.ChargeTo(acct, m.EENTER+m.ShieldCost(argBytes))

	t := threadPool.Get().(*Thread)
	*t = Thread{enclave: e, acct: acct, jitter: p.env.Jitter}
	err := fn(t)
	*t = Thread{}
	threadPool.Put(t)

	e.events.Count(acct, 1, simclock.EEXIT)
	p.env.ChargeTo(acct, m.EEXIT+m.ShieldCost(retBytes))
	return err
}

// EnterResident models Gramine's long-lived entries: one ECALL for the
// process and one per LibOS thread that never return while the enclave
// lives. Only EENTER is counted, reproducing the EENTER>EEXIT skew in the
// paper's Table III.
func (e *Enclave) EnterResident(ctx context.Context) (*Thread, error) {
	if err := e.live(); err != nil {
		return nil, err
	}
	if err := e.acquireTCS(ctx); err != nil {
		return nil, err
	}
	p := e.platform
	acct := simclock.AccountFrom(ctx)
	e.events.Count(acct, 1, simclock.EENTER, simclock.ECALL)
	p.env.ChargeTo(acct, p.env.Model.EENTER)
	return &Thread{enclave: e, acct: acct, jitter: p.env.Jitter}, nil
}

// LeaveResident releases a resident thread's TCS slot, counting the final
// EEXIT (process teardown).
func (e *Enclave) LeaveResident(t *Thread) {
	e.events.Count(t.acct, 1, simclock.EEXIT)
	e.platform.env.ChargeTo(t.acct, e.platform.env.Model.EEXIT)
	<-e.tcs
}

// BindRequest rebinds a pooled request thread, dst, to t's enclave without
// allocating: it charges acct and draws from jitter, the request's stream
// (the platform's root when the request carries none, as in the
// sequential seed). The caller resolves both from the request's context
// once and reports against the same account. dst is caller-owned and must
// not be retained past the request it was bound for.
func (t *Thread) BindRequest(acct *simclock.Account, jitter *simclock.Jitter, dst *Thread) {
	dst.enclave = t.enclave
	dst.acct = acct
	dst.jitter = jitter
}

// OCallN models the thread leaving the enclave n times to have the
// untrusted runtime perform work on its behalf (a proxied syscall): EEXIT,
// the untrusted work expressed in cycles, then EENTER, with argument and
// result bytes shielded as they cross the boundary. The n calls share their
// arguments — a run of the LibOS's syscall census — and are counted and
// charged in one step: the counters and the account end where n single
// calls would leave them.
func (t *Thread) OCallN(n int, untrustedCycles simclock.Cycles, outBytes, inBytes int) {
	if n <= 0 {
		return
	}
	e := t.enclave
	m := e.platform.env.Model
	e.events.Count(t.acct, uint64(n), simclock.EEXIT, simclock.EENTER, simclock.OCALL)
	cost := m.EEXIT + m.ShieldCost(outBytes) + untrustedCycles + m.EENTER + m.ShieldCost(inBytes)
	e.platform.env.ChargeTo(t.acct, simclock.Cycles(n)*cost)
}

// OCallExitlessN is OCallN under Gramine's exitless (switchless) call
// feature: the enclave thread hands each syscall to an untrusted helper
// thread through a shared-memory ring and spins until the result lands,
// avoiding the EEXIT/EENTER pair entirely. The OCALLs are still counted
// (they are still proxied syscalls) but no transitions occur; the price is
// the cross-core handoff and the helper thread burning a core. The paper
// notes this feature is not production-ready; it is modelled here for the
// §V-B7 ablation.
func (t *Thread) OCallExitlessN(n int, untrustedCycles simclock.Cycles, outBytes, inBytes int) {
	if n <= 0 {
		return
	}
	e := t.enclave
	m := e.platform.env.Model
	e.events.Count(t.acct, uint64(n), simclock.OCALL)
	// Two cache-line handoffs plus the spin while the helper serves the
	// call; far below the ~17k-cycle transition pair.
	const handoffCycles = 3_000
	cost := handoffCycles + untrustedCycles + m.ShieldCost(outBytes) + m.ShieldCost(inBytes)
	e.platform.env.ChargeTo(t.acct, simclock.Cycles(n)*cost)
}

// ShieldTransfer charges the boundary cost of moving outBytes out of and
// inBytes into the enclave through shared memory without any transition:
// the copy-and-shield price a switchless submission pays for its argument
// and result buffers. No counters move — there is no event hardware would
// count, only bytes crossing the boundary.
func (t *Thread) ShieldTransfer(outBytes, inBytes int) {
	m := t.enclave.platform.env.Model
	t.enclave.platform.env.ChargeTo(t.acct, m.ShieldCost(outBytes)+m.ShieldCost(inBytes))
}

// Compute charges n cycles of in-enclave execution. Execution inside the
// EPC pays the memory-encryption overhead, and long computations are
// interrupted by timer-driven asynchronous exits (AEX + ERESUME), which the
// simulator draws at the platform tick rate.
func (t *Thread) Compute(n simclock.Cycles) {
	e := t.enclave
	p := e.platform
	m := p.env.Model

	// MEE overhead: a few percent on compute-bound in-enclave code.
	const meeOverheadPct = 6
	cost := n + n*meeOverheadPct/100

	seconds := float64(n) / float64(m.FrequencyHz)
	aex := t.jitter.Poisson(seconds * m.AEXRatePerThreadHz)
	if aex > 0 {
		e.events.Count(t.acct, uint64(aex), simclock.AEX)
		cost += simclock.Cycles(aex) * m.AEXRoundTrip()
	}
	p.env.ChargeTo(t.acct, cost)
}

// Touch models the thread accessing n bytes of enclave heap. Pages not yet
// faulted in (preheat disabled, or first touch after load) pay the EPC
// fault cost; oversized enclaves pay residual paging pressure, reproducing
// the Fig. 8 degradation at 8 GiB EPC.
func (t *Thread) Touch(nBytes uint64) {
	e := t.enclave
	p := e.platform
	m := p.env.Model
	pages := costmodel.PagesFor(nBytes)

	// Claim not-yet-faulted pages with a CAS loop so concurrent first
	// touches never double-charge a page and never serialise on a lock.
	var faults uint64
	total := costmodel.PagesFor(e.cfg.SizeBytes)
	for {
		done := e.faulted.Load()
		if done >= total {
			break
		}
		claim := total - done
		if pages < claim {
			claim = pages
		}
		if e.faulted.CompareAndSwap(done, done+claim) {
			faults = claim
			break
		}
	}

	// Residual paging pressure grows with committed enclave size: the
	// kernel balances a larger resident set, so reclaim touches big
	// enclaves more often. 512 MiB pays ~0; 8 GiB pays the paper's
	// "slight decrease in performance and wider interquartile range".
	const pressurePages = float64(1 << 30 / costmodel.PageSize) // per GiB beyond the first
	excess := float64(total) - pressurePages
	var lambda float64
	if excess > 0 {
		lambda = 0.04 * (excess / pressurePages) * float64(pages)
	}
	faults += uint64(t.jitter.Poisson(lambda))

	if faults > 0 {
		e.events.Count(t.acct, faults, simclock.EPCFault, simclock.AEX)
		p.env.ChargeTo(t.acct, simclock.Cycles(faults)*(m.EPCPageFault+m.AEXRoundTrip()))
	}
	p.env.ChargeTo(t.acct, simclock.Cycles(nBytes)*m.CopyPerByte)
}

// StoreSecret places a long-term key in enclave memory, inline in the key
// store. From inside the enclave it is plaintext; Introspect (the
// attacker's view) sees only ciphertext, reproducing the
// memory-introspection protection of Key Issues 7 and 15.
func (t *Thread) StoreSecret(supi codec.SUPI, k [16]byte) {
	e := t.enclave
	e.secretMu.Lock()
	e.secrets[supi] = k
	e.secretMu.Unlock()
}

// LoadSecret returns supi's key by value, so the copy lives in the
// caller's frame. Reads share the lock so concurrent AV generations for
// different subscribers do not serialise on the key store.
//
// A miss is not final: the key may have been provisioned to another
// enclave of this identity (a rebalance routed the SUPI here) or to this
// enclave before a restart emptied it. The miss path opens the platform's
// sealed file for the SUPI, inside the enclave, and keeps the key in the
// store; only a SUPI with no sealed file misses. Like provisioning, the
// miss path charges no virtual cost.
func (t *Thread) LoadSecret(supi codec.SUPI) (k [16]byte, ok bool) {
	e := t.enclave
	e.secretMu.RLock()
	k, ok = e.secrets[supi]
	e.secretMu.RUnlock()
	if !ok {
		return e.restoreSecret(supi)
	}
	return k, true
}

// restoreSecret is the key store's miss path: it unseals supi's one sealed
// file and files the key in the store. A key stored meanwhile (a
// re-provision racing the miss) wins over the file's, and a store torn
// down meanwhile stays empty.
func (e *Enclave) restoreSecret(supi codec.SUPI) (k [16]byte, ok bool) {
	p := e.platform
	p.mu.Lock()
	blob, ok := p.backups[e.measurement][supi]
	p.mu.Unlock()
	if !ok {
		return k, false
	}
	ad := sealADPool.Get().(*[codec.SUPITextLen]byte)
	plain, err := e.Unseal(blob, sealAD(ad, supi))
	sealADPool.Put(ad)
	if err != nil || len(plain) != len(k) {
		clear(plain)
		return k, false
	}
	copy(k[:], plain)
	clear(plain)
	e.secretMu.Lock()
	defer e.secretMu.Unlock()
	if e.live() != nil {
		return [16]byte{}, false
	}
	if held, ok := e.secrets[supi]; ok {
		return held, true
	}
	e.secrets[supi] = k
	return k, true
}

// DeleteSecret drops supi's key from the enclave's key store; a later
// LoadSecret of the SUPI finds it in the platform's sealed file again.
func (t *Thread) DeleteSecret(supi codec.SUPI) {
	e := t.enclave
	e.secretMu.Lock()
	delete(e.secrets, supi)
	e.secretMu.Unlock()
}

// Introspect is the view a privileged attacker (hypervisor, container
// engine, co-resident root) gets of the enclave's key store, region by
// SUPI text (formatted here, at dump time): the Memory Encryption Engine
// ciphertext, never the plaintext.
func (e *Enclave) Introspect() map[string][]byte {
	e.secretMu.RLock()
	defer e.secretMu.RUnlock()
	// Deterministic keystream derived from the platform sealing root and
	// enclave id stands in for the MEE's AES-XTS: same plaintext, same
	// ciphertext, nothing recoverable without the CPU package key. A key
	// is half a keystream block.
	h := sha256.New()
	h.Write(e.platform.sealRoot[:])
	var idb [16]byte
	binary.BigEndian.PutUint64(idb[:8], e.id)
	h.Write(idb[:])
	var block [32]byte
	h.Sum(block[:0])
	out := make(map[string][]byte, len(e.secrets))
	for supi, k := range e.secrets {
		ct := make([]byte, len(k))
		for i := range k {
			ct[i] = k[i] ^ block[i]
		}
		out[supi.String()] = ct
	}
	return out
}

// AccrueUptime models the enclave staying resident for d of virtual time:
// timer interrupts hit every enclave-resident thread, generating the large
// registration-independent AEX populations of Table III.
func (e *Enclave) AccrueUptime(d time.Duration) {
	p := e.platform
	resident := float64(e.cfg.MaxThreads)
	mean := d.Seconds() * p.env.Model.AEXRatePerThreadHz * resident
	n := p.env.Jitter.Poisson(mean)
	e.events.Count(nil, uint64(n), simclock.AEX)
	p.env.Clock.AdvanceDuration(d)
}

// InjectAEX models an externally induced burst of asynchronous exits — a
// noisy neighbour hammering the core with interrupts, or a malicious host
// scheduler preempting the enclave (the single-stepping vector of Key
// Issue 11). Each exit pays the AEX+ERESUME round trip, charged to the
// request in ctx so the victim's latency figures absorb the storm.
func (e *Enclave) InjectAEX(ctx context.Context, n uint64) {
	if n == 0 || e.live() != nil {
		return
	}
	env, acct := e.platform.env, simclock.AccountFrom(ctx)
	e.events.Count(acct, n, simclock.AEX)
	env.ChargeTo(acct, simclock.Cycles(n)*env.Model.AEXRoundTrip())
}

// EvictPages models EPC page-pressure reclaim: the kernel swaps up to n of
// the enclave's resident heap pages out of the EPC (EWB). The eviction
// itself is the host's cost; the enclave pays later, when Touch re-faults
// the evicted pages back in. Returns the number of pages actually evicted.
func (e *Enclave) EvictPages(n uint64) uint64 {
	if n == 0 || e.live() != nil {
		return 0
	}
	for {
		done := e.faulted.Load()
		if done == 0 {
			return 0
		}
		evict := n
		if evict > done {
			evict = done
		}
		if e.faulted.CompareAndSwap(done, done-evict) {
			return evict
		}
	}
}

// StatsSnapshot is a point-in-time copy of the counters, by their Table III
// names.
type StatsSnapshot struct {
	EENTER     uint64
	EEXIT      uint64
	AEX        uint64
	ERESUME    uint64
	ECALLs     uint64
	OCALLs     uint64
	PageFaults uint64
}

// Events snapshots the enclave's counters.
func (e *Enclave) Events() simclock.Counts { return e.events.Load() }

// Stats returns a snapshot of the enclave's counters.
func (e *Enclave) Stats() StatsSnapshot { return StatsOf(e.events.Load()) }

// StatsOf reads SGX counts by their Table III names: zero for a runtime
// without an enclave. Every AEX is followed by its ERESUME, so the two
// read the same count.
func StatsOf(c simclock.Counts) StatsSnapshot {
	return StatsSnapshot{
		EENTER:     c[simclock.EENTER],
		EEXIT:      c[simclock.EEXIT],
		AEX:        c[simclock.AEX],
		ERESUME:    c[simclock.AEX],
		ECALLs:     c[simclock.ECALL],
		OCALLs:     c[simclock.OCALL],
		PageFaults: c[simclock.EPCFault],
	}
}

// Sub returns the counter deltas s - prev; the paper differences
// consecutive snapshots to obtain per-registration costs.
func (s StatsSnapshot) Sub(prev StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		EENTER:     s.EENTER - prev.EENTER,
		EEXIT:      s.EEXIT - prev.EEXIT,
		AEX:        s.AEX - prev.AEX,
		ERESUME:    s.ERESUME - prev.ERESUME,
		ECALLs:     s.ECALLs - prev.ECALLs,
		OCALLs:     s.OCALLs - prev.OCALLs,
		PageFaults: s.PageFaults - prev.PageFaults,
	}
}
