package gramine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"shield5g/internal/hmee"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/simclock"
)

// Launch-time constants.
const (
	// serverInitOCALLs is the cost of bringing the in-enclave HTTPS
	// server up: socket/bind/listen, certificate loading, epoll setup.
	// Together with the GSC bootstrap this reproduces the paper's ~650
	// extra EENTER/EEXITs for a server versus the empty workload.
	serverInitOCALLs = 590
	// warmupOCALLs and warmupVerifyBytes model the first request: the
	// lazy dlopen of network-stack dependencies triggers a handful of
	// OCALLs plus in-enclave verification (hashing) of the
	// lazily-loaded trusted files. The verification compute is what
	// makes the initial response ~20× the stable one (Fig. 10b) without
	// inflating the transition counts of Table III.
	warmupOCALLs      = 60
	warmupVerifyBytes = 2_800_000
)

// Instance is one running shielded container: an enclave booted through
// the Gramine LibOS, with its resident process entry and helper threads.
type Instance struct {
	platform *sgx.Platform
	image    *ShieldedImage
	enclave  *sgx.Enclave
	syscalls hmee.SyscallProfile
	exitless bool

	proc    *sgx.Thread
	helpers []*sgx.Thread

	// ring and dispatcher implement the switchless ECALL path: the
	// dispatcher pins one TCS for the life of the instance and serves
	// requests submitted into the shared-memory ring. Both are nil unless
	// Manifest.SwitchlessECalls was set.
	ring       *sgx.Ring
	dispatcher *sgx.Thread

	// mu guards the lifecycle. inflight counts admitted requests; Shutdown
	// waits on idle for it to drain before it releases the threads those
	// requests run on.
	mu       sync.Mutex
	idle     sync.Cond
	running  bool
	warm     bool
	inflight int
}

// LaunchOption tunes instance bring-up.
type LaunchOption func(*launchConfig)

type launchConfig struct {
	noServer bool
	syscalls *hmee.SyscallProfile
}

// WithoutServer skips the HTTPS server bring-up syscalls — used for the
// paper's "empty workload" GSC baseline (Table III).
func WithoutServer() LaunchOption {
	return func(c *launchConfig) { c.noServer = true }
}

// WithSyscallProfile overrides the per-request syscall census (for the
// user-level TCP ablation).
func WithSyscallProfile(sp hmee.SyscallProfile) LaunchOption {
	return func(c *launchConfig) { c.syscalls = &sp }
}

// Launch verifies the shielded image, builds its enclave (charging the
// full Fig. 7 load cost to ctx's account), enters the resident process and
// helper threads, and starts the in-enclave server.
func Launch(ctx context.Context, p *sgx.Platform, si *ShieldedImage, opts ...LaunchOption) (*Instance, error) {
	if p == nil || si == nil {
		return nil, errors.New("gramine: nil platform or image")
	}
	var lc launchConfig
	for _, opt := range opts {
		opt(&lc)
	}
	if err := si.Verify(); err != nil {
		return nil, fmt.Errorf("gramine: launch: %w", err)
	}
	enclave, err := p.Build(ctx, si.EnclaveConfig())
	if err != nil {
		return nil, fmt.Errorf("gramine: build enclave: %w", err)
	}

	inst := &Instance{
		platform: p,
		image:    si,
		enclave:  enclave,
		syscalls: hmee.DefaultSyscallProfile(),
		exitless: si.Manifest.Exitless,
		running:  true,
	}
	inst.idle.L = &inst.mu
	if lc.syscalls != nil {
		inst.syscalls = *lc.syscalls
	}

	// One never-returning ECALL for the process, one per helper thread.
	proc, err := enclave.EnterResident(ctx)
	if err != nil {
		enclave.Destroy()
		return nil, fmt.Errorf("gramine: enter process: %w", err)
	}
	inst.proc = proc
	for i := 0; i < HelperThreads; i++ {
		h, err := enclave.EnterResident(ctx)
		if err != nil {
			inst.Shutdown()
			return nil, fmt.Errorf("gramine: enter helper %d: %w", i, err)
		}
		inst.helpers = append(inst.helpers, h)
	}

	// Server bring-up syscalls.
	if !lc.noServer {
		m := p.Env().Model
		proc.OCallN(serverInitOCALLs, m.SyscallNative, 32, 32)
	}

	// The switchless dispatcher enters last, after the server is up, and
	// never returns: one more long-lived EENTER pinning one TCS for the
	// life of the instance.
	if si.Manifest.SwitchlessECalls {
		d, err := enclave.EnterResident(ctx)
		if err != nil {
			inst.Shutdown()
			return nil, fmt.Errorf("gramine: enter switchless dispatcher: %w", err)
		}
		inst.dispatcher = d
		inst.ring = sgx.NewRing(enclave, d, 0)
	}
	return inst, nil
}

// Enclave exposes the underlying enclave (stats, sealing, attestation).
func (i *Instance) Enclave() *sgx.Enclave { return i.enclave }

// LoadDuration reports the modelled enclave load time (Fig. 7).
func (i *Instance) LoadDuration() time.Duration { return i.enclave.LoadDuration() }

// TCBBytes reports the trusted computing base carried by this instance:
// the bytes measured into the enclave identity. Optimizations that pull
// more functionality inside (user-level TCP) grow this number — the
// trade-off the paper calls out in §V-B7.
func (i *Instance) TCBBytes() uint64 {
	var n uint64
	for _, f := range i.image.Manifest.TrustedFiles {
		n += f.Size
	}
	return n
}

// Exitless reports whether switchless OCALLs are active.
func (i *Instance) Exitless() bool { return i.exitless }

// Switchless reports whether the instance runs a switchless ECALL ring.
func (i *Instance) Switchless() bool { return i.ring != nil }

// RingStats snapshots the submission ring's counters (zero without a
// ring).
func (i *Instance) RingStats() sgx.RingStats {
	if i.ring == nil {
		return sgx.RingStats{}
	}
	return i.ring.Stats()
}

// Introspect is the host's view of the enclave's key store: MEE
// ciphertext, region by name.
func (i *Instance) Introspect() map[string][]byte { return i.enclave.Introspect() }

// Warm reports whether the first request has been served.
func (i *Instance) Warm() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.warm
}

// request is the one description of work crossing into the in-enclave
// server: which phases of the server path it charges, its body sizes and
// its handler. The struct is pooled, carries no closure, and is itself the
// sgx.RingJob when the crossing is the submission ring.
type request struct {
	inst    *Instance
	ctx     context.Context
	acct    *simclock.Account
	phases  hmee.Phases
	in, out int
	handler hmee.Handler
	viaRing bool
	bd      hmee.Breakdown
	// th is the in-enclave thread the handler sees, bound to this
	// request's account and jitter stream for the length of Execute.
	th sgx.Thread
}

// requestPool recycles request descriptions: handlers are synchronous and
// retain neither the request nor its thread, so one pooled struct per
// in-flight request replaces two heap allocations per served request.
var requestPool = sync.Pool{New: func() any { return new(request) }}

// admit checks a request in against the instance lifecycle and resolves
// its phases against the warm state: exactly one request ever keeps
// Warmup. Every admitted request must be released.
func (i *Instance) admit(ph hmee.Phases) (hmee.Phases, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.running {
		return 0, hmee.ErrStopped
	}
	if ph&hmee.Warmup != 0 {
		if i.warm {
			ph = ph.Warm()
		}
		i.warm = true
	}
	i.inflight++
	return ph, nil
}

func (i *Instance) release() {
	i.mu.Lock()
	i.inflight--
	if i.inflight == 0 && !i.running {
		i.idle.Broadcast() // only Shutdown ever waits
	}
	i.mu.Unlock()
}

// Cross is the single serve path (hmee.Crossing): admit, describe, cross.
// The deployment picks the crossing, not the request: an instance launched
// with a ring (Manifest.SwitchlessECalls) submits every crossing that
// charges any part of the server path through it (maintenance, the zero
// set, always runs in place). Without a ring, a classic Entry takes a
// fresh ECALL — one EENTER/EEXIT pair for the whole batch, on a TCS slot
// beyond the resident threads (Manifest.MaxThreads ≥ HelperThreads+2;
// acquisition queues, honouring ctx cancellation) — and everything else
// runs on the resident process thread. The handler receives the
// in-enclave thread to charge its own compute and memory touches.
//
//shieldlint:hotpath
func (i *Instance) Cross(ctx context.Context, ph hmee.Phases, in, out int, h hmee.Handler) (hmee.Breakdown, error) {
	viaRing := ph != 0 && i.ring != nil
	ph, err := i.admit(ph)
	if err != nil {
		return hmee.Breakdown{}, err
	}
	defer i.release()
	r := requestPool.Get().(*request)
	*r = request{inst: i, ctx: ctx, acct: simclock.AccountFrom(ctx), phases: ph, in: in, out: out, handler: h, viaRing: viaRing}
	switch {
	case viaRing:
		// A ring that closed under the request means the enclave is going
		// down with it.
		if err = i.ring.Submit(ctx, r); errors.Is(err, sgx.ErrRingClosed) {
			err = hmee.ErrStopped
		}
	case ph&hmee.Entry != 0:
		// The entry charges the account it finds on ctx; pin the request's.
		err = i.enclave.ECall(simclock.WithAccount(ctx, r.acct), in, out, r.Execute)
	default:
		err = r.Execute(i.proc)
	}
	bd := r.bd
	*r = request{}
	requestPool.Put(r)
	return bd, err
}

// ocalls issues n identical proxied syscalls on th in one step: as
// exitless handoffs or as full EEXIT/EENTER transition pairs.
//
//shieldlint:hotpath
func ocalls(th *sgx.Thread, exitless bool, n int, untrusted simclock.Cycles, out, in int) {
	if exitless {
		th.OCallExitlessN(n, untrusted, out, in)
	} else {
		th.OCallN(n, untrusted, out, in)
	}
}

// Execute walks the request's phases on a thread bound to the request's
// account and jitter stream. t is whichever in-enclave thread carries the
// request: the resident process thread, a batch ECALL's fresh entry, or —
// as the sgx.RingJob — the ring dispatcher.
//
//shieldlint:hotpath
func (r *request) Execute(t *sgx.Thread) (err error) {
	t.BindRequest(r.ctx, r.acct, &r.th)
	r.bd, err = hmee.Walk(r, r.inst.platform.Env().Model, r.inst.syscalls, r.acct, r.phases, r.in, r.out, r.handler)
	return err
}

// The enclave's prices (hmee.Surface): every syscall is an OCALL proxied
// by the LibOS, server compute and staged bodies run on the in-enclave
// thread (MEE overhead, AEX draws, EPC faults), and the handler receives
// that thread itself.

// Warmup is the lazy loading of network-stack dependencies: a few OCALLs
// and the in-enclave verification of the lazily-read trusted files. It
// runs before the exitless helper is up, so it pays transitions whatever
// the manifest says — except on the dispatcher, which never leaves.
func (r *request) Warmup() {
	m := r.inst.platform.Env().Model
	ocalls(&r.th, r.viaRing, warmupOCALLs, m.SyscallNative, 64, 64)
	r.th.Compute(simclock.Cycles(warmupVerifyBytes) * m.TrustedFileHashPerByte)
}

// Syscalls proxies n syscalls. A request on the dispatcher must never
// leave the enclave, so all of its are exitless handoffs; elsewhere that
// is the manifest's choice.
//
//shieldlint:hotpath
func (r *request) Syscalls(n, out, in int) {
	ocalls(&r.th, r.viaRing || r.inst.exitless, n, r.inst.platform.Env().Model.SyscallNative, out, in)
}

func (r *request) ServerCompute(n simclock.Cycles) { r.th.Compute(n) }

func (r *request) Stage(n int) { r.th.Touch(uint64(n)) }

// Entry: a classic batch shielded its buffers on the ECALL that carried it
// here; through the ring they cross shared memory — the shield cost, no
// transitions.
func (r *request) Entry(in, out int) {
	if r.viaRing {
		r.th.ShieldTransfer(in, out)
	}
}

func (r *request) Jitter() *simclock.Jitter { return r.inst.platform.Env().JitterFor(r.ctx) }

func (r *request) Exec() hmee.Exec { return &r.th }

// AccrueUptime models the instance staying deployed for d of virtual time
// (timer-interrupt AEX accumulation; Table III).
func (i *Instance) AccrueUptime(d time.Duration) { i.enclave.AccrueUptime(d) }

// Stats snapshots the enclave's SGX counters.
func (i *Instance) Stats() sgx.StatsSnapshot { return i.enclave.Stats() }

// Shutdown leaves the resident threads and destroys the enclave. Requests
// admitted before it finish first (those still queued in the ring fail
// with hmee.ErrStopped); later ones are refused. It is idempotent.
func (i *Instance) Shutdown() {
	i.mu.Lock()
	if !i.running {
		i.mu.Unlock()
		return
	}
	i.running = false
	i.mu.Unlock()

	// The ring closes first so queued submissions drain (completed exactly
	// once with ErrRingClosed) instead of waiting out their turn.
	if i.ring != nil {
		i.ring.Close()
	}
	i.mu.Lock()
	for i.inflight > 0 {
		i.idle.Wait()
	}
	i.mu.Unlock()

	if i.dispatcher != nil {
		i.enclave.LeaveResident(i.dispatcher)
	}
	for _, h := range i.helpers {
		i.enclave.LeaveResident(h)
	}
	i.enclave.LeaveResident(i.proc)
	i.enclave.Destroy()
}
