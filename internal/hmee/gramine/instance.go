package gramine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"shield5g/internal/hmee/sgx"
	"shield5g/internal/simclock"
)

// Instance lifecycle errors.
var (
	// ErrNotRunning reports use of a stopped instance.
	ErrNotRunning = errors.New("gramine: instance not running")
	// ErrSessionClosed reports a request on a closed keep-alive session.
	ErrSessionClosed = errors.New("gramine: session closed")
)

// SyscallProfile is the per-request syscall census of the module's HTTPS
// server. Under Gramine every syscall is proxied through an OCALL, so
// these counts are the source of the ~90 EENTER/EEXIT pairs the paper
// measures per UE registration (Table III); under a plain container the
// same syscalls execute at native cost. Both runtimes share this profile
// so the SGX-vs-container comparison differs only in the per-event price.
type SyscallProfile struct {
	// Pre counts the pre-request machinery: epoll_wait wake-up, futexes,
	// accept processing.
	Pre int
	// Read counts the request reads: recvmsg ×2 plus a readiness ioctl.
	Read int
	// InHandler counts syscalls issued during the AKA function itself
	// (clock_gettime in the debug/stats build).
	InHandler int
	// Write counts the response path: sendmsg ×2, epoll_ctl re-arm,
	// futex wake.
	Write int
	// Post counts the post-request machinery: timer re-arm, IPC with
	// helper threads, stats flush.
	Post int
}

// DefaultSyscallProfile reproduces the paper's ~90 transitions per served
// request.
func DefaultSyscallProfile() SyscallProfile {
	return SyscallProfile{Pre: 38, Read: 3, InHandler: 1, Write: 4, Post: 43}
}

// UserTCPSyscallProfile models the mTCP-style user-level network stack the
// paper proposes as a §V-B7 optimization: the TCP machinery runs inside
// the enclave over shared-memory packet rings, collapsing the per-request
// syscall census to the ring notifications (DPDK-style I/O). The trade-off
// the paper notes — more functionality inside the enclave, bigger TCB —
// is reflected in the TCB accounting, not hidden.
func UserTCPSyscallProfile() SyscallProfile {
	return SyscallProfile{Pre: 4, Read: 1, InHandler: 1, Write: 1, Post: 5}
}

// Total sums all phases.
func (sp SyscallProfile) Total() int {
	return sp.Pre + sp.Read + sp.InHandler + sp.Write + sp.Post
}

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

// Breakdown reports the virtual-time windows of one served request using
// the paper's metric names: L_F (functional latency: the AKA function
// execution), L_T (total latency: request receipt to response send inside
// the module), and the full server-side residence that the caller extends
// into the response time R.
type Breakdown struct {
	Functional simclock.Cycles
	Total      simclock.Cycles
	ServerSide simclock.Cycles
}

// Instance is one running shielded container: an enclave booted through
// the Gramine LibOS, with its resident process entry and helper threads.
type Instance struct {
	platform *sgx.Platform
	image    *ShieldedImage
	enclave  *sgx.Enclave
	syscalls SyscallProfile
	exitless bool

	proc    *sgx.Thread
	helpers []*sgx.Thread

	// ring and dispatcher implement the switchless ECALL path: the
	// dispatcher pins one TCS for the life of the instance and serves
	// jobs submitted into the shared-memory ring. Both are nil unless
	// Manifest.SwitchlessECalls was set.
	ring       *sgx.Ring
	dispatcher *sgx.Thread

	mu      sync.Mutex
	running bool
	warm    bool
}

// LaunchOption tunes instance bring-up.
type LaunchOption func(*launchConfig)

type launchConfig struct {
	noServer bool
	syscalls *SyscallProfile
}

// WithoutServer skips the HTTPS server bring-up syscalls — used for the
// paper's "empty workload" GSC baseline (Table III).
func WithoutServer() LaunchOption {
	return func(c *launchConfig) { c.noServer = true }
}

// WithSyscallProfile overrides the per-request syscall census (for the
// user-level TCP ablation).
func WithSyscallProfile(sp SyscallProfile) LaunchOption {
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
		syscalls: DefaultSyscallProfile(),
		exitless: si.Manifest.Exitless,
		running:  true,
	}
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
		m := p.Model()
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

// Image returns the shielded image the instance was launched from.
func (i *Instance) Image() *ShieldedImage { return i.image }

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

// RingOccupancy reports the submission ring's published-but-unserved job
// count (0 without a ring). The UDM's AV mint reads it to widen batches
// opportunistically from cross-worker concurrency.
func (i *Instance) RingOccupancy() int {
	if i.ring == nil {
		return 0
	}
	return i.ring.Occupancy()
}

// RingStats snapshots the submission ring's counters (zero without a
// ring).
func (i *Instance) RingStats() sgx.RingStats {
	if i.ring == nil {
		return sgx.RingStats{}
	}
	return i.ring.Stats()
}

// Warm reports whether the first request has been served.
func (i *Instance) Warm() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.warm
}

// ServeRequest runs one HTTPS request through the in-enclave server: the
// pre-request syscall machinery, TLS and HTTP processing, the handler
// itself, the response path, and the post-request machinery. The handler
// receives the in-enclave thread to charge its own compute and memory
// touches; any real work (the actual AKA crypto) runs inside it.
//
// Costs are charged to the account carried by ctx, which must be dedicated
// to this request for the returned Breakdown windows to be meaningful.
func (i *Instance) ServeRequest(ctx context.Context, inBytes, outBytes int, handler func(*sgx.Thread) error) (Breakdown, error) {
	i.mu.Lock()
	if !i.running {
		i.mu.Unlock()
		return Breakdown{}, ErrNotRunning
	}
	first := !i.warm
	i.warm = true
	i.mu.Unlock()

	p := i.platform
	m := p.Model()
	acct := simclock.AccountFrom(ctx)
	// Bind a pooled request thread to this request's account and (in
	// parallel mode) its per-worker jitter stream.
	th := i.reqThread(ctx, acct)
	defer putThread(th)
	start := acct.Total()

	if first {
		// Lazy loading of network-stack dependencies: a few OCALLs and
		// the in-enclave verification of the lazily-read trusted files.
		th.OCallN(warmupOCALLs, m.SyscallNative, 64, 64)
		th.Compute(simclock.Cycles(warmupVerifyBytes) * m.TrustedFileHashPerByte)
		// The server-side TLS handshake for the first connection.
		th.Compute(m.TLSHandshakeServer)
	}

	jig := int(simclock.JitterFrom(ctx, p.Jitter()).Uint64n(3))
	i.ocalls(false, th, i.syscalls.Pre+jig, m.SyscallNative, 16, 16)

	functional, total, err := i.requestCensus(th, acct, inBytes, outBytes, handler, false)

	i.ocalls(false, th, i.syscalls.Post, m.SyscallNative, 16, 16)

	return Breakdown{
		Functional: functional,
		Total:      total,
		ServerSide: acct.Total() - start,
	}, err
}

// ServeRequestSwitchless is ServeRequest routed through the submission
// ring when ctx negotiated it; otherwise it falls back to the classic
// path. The ring route lives in its own entry point — not a branch inside
// ServeRequest — because submitting stores the handler in a pooled job,
// and Go's escape analysis would then charge every classic caller a
// heap-allocated closure for a path it never takes.
func (i *Instance) ServeRequestSwitchless(ctx context.Context, inBytes, outBytes int, handler func(*sgx.Thread) error) (Breakdown, error) {
	if i.ring == nil || !sgx.SwitchlessFrom(ctx) {
		return i.ServeRequest(ctx, inBytes, outBytes, handler)
	}
	i.mu.Lock()
	if !i.running {
		i.mu.Unlock()
		return Breakdown{}, ErrNotRunning
	}
	first := !i.warm
	i.warm = true
	i.mu.Unlock()
	return i.serveViaRing(ctx, inBytes, outBytes, handler, first, true, true)
}

// threadPool recycles the per-request sgx.Thread bindings that
// ServeRequest, ServeOnSession, OpenSession and Close mint: handlers are
// synchronous and never retain the thread, so one pooled binding per
// in-flight request replaces one heap allocation per served request on the
// keep-alive hot path.
var threadPool = sync.Pool{New: func() any { return new(sgx.Thread) }}

// reqThread binds a pooled thread to this request's account and ctx's
// jitter stream; release it with putThread when the request completes.
//
//shieldlint:hotpath
func (i *Instance) reqThread(ctx context.Context, acct *simclock.Account) *sgx.Thread {
	th := threadPool.Get().(*sgx.Thread)
	i.proc.BindRequest(ctx, acct, th)
	return th
}

func putThread(th *sgx.Thread) { threadPool.Put(th) }

// ocalls issues n identical proxied syscalls on th in one step: through
// the exitless ring when enabled, or when the request is served on the
// switchless dispatcher (viaRing) and so must never leave the enclave;
// otherwise as full EEXIT/EENTER transition pairs.
//
//shieldlint:hotpath
func (i *Instance) ocalls(viaRing bool, th *sgx.Thread, n int, untrusted simclock.Cycles, out, in int) {
	if viaRing || i.exitless {
		th.OCallExitlessN(n, untrusted, out, in)
	} else {
		th.OCallN(n, untrusted, out, in)
	}
}

// perCall is the share of a body one of n reads or writes moves; a profile
// with none of them moves nothing.
func perCall(bytes, n int) int {
	if n <= 0 {
		return 0
	}
	return bytes/n + 1
}

// requestCensus charges the per-request half of the syscall census — the
// request reads, TLS and HTTP processing, the handler window, and the
// response path — and returns the L_F and L_T windows. ServeRequest and
// ServeOnSession share it so their charge order stays literally
// identical; only the connection-scoped Pre/Post machinery around it
// differs between the two paths.
func (i *Instance) requestCensus(th *sgx.Thread, acct *simclock.Account, inBytes, outBytes int, handler func(*sgx.Thread) error, viaRing bool) (functional, total simclock.Cycles, err error) {
	m := i.platform.Model()

	totalStart := acct.Total()
	i.ocalls(viaRing, th, i.syscalls.Read, m.SyscallNative, 0, perCall(inBytes, i.syscalls.Read))
	th.Compute(m.TLSRecordCost(inBytes) + m.HTTPCost(inBytes))
	th.Touch(uint64(inBytes))

	fnStart := acct.Total()
	i.ocalls(viaRing, th, i.syscalls.InHandler, m.SyscallNative, 8, 8)
	err = handler(th)
	fnEnd := acct.Total()

	th.Compute(m.HTTPCost(outBytes) + m.TLSRecordCost(outBytes))
	th.Touch(uint64(outBytes))
	i.ocalls(viaRing, th, i.syscalls.Write, m.SyscallNative, perCall(outBytes, i.syscalls.Write), 0)
	totalEnd := acct.Total()
	return fnEnd - fnStart, totalEnd - totalStart, err
}

// Pooled switchless job structs: submissions carry no closures, so the
// steady-state ring path stays inside the hot-path allocation budget.
var (
	serveJobPool   = sync.Pool{New: func() any { return new(ringServeJob) }}
	sessionJobPool = sync.Pool{New: func() any { return new(ringSessionJob) }}
	fnJobPool      = sync.Pool{New: func() any { return new(ringFnJob) }}
)

// ringServeJob serves one request on the switchless dispatcher: the same
// census ServeRequest/ServeOnSession charge, with every proxied syscall
// taking the exitless handoff — the request crosses the boundary with zero
// EENTER/EEXIT.
type ringServeJob struct {
	inst              *Instance
	ctx               context.Context
	acct              *simclock.Account
	inBytes, outBytes int
	handler           func(*sgx.Thread) error
	first, pre, post  bool
	bd                Breakdown
}

// Execute runs on the dispatcher's resident thread; costs land on the
// submitting request's account and jitter stream.
//
//shieldlint:hotpath
func (j *ringServeJob) Execute(*sgx.Thread) error {
	i := j.inst
	p := i.platform
	m := p.Model()
	acct := j.acct
	th := i.reqThread(j.ctx, acct)
	defer putThread(th)
	start := acct.Total()

	if j.first {
		th.OCallExitlessN(warmupOCALLs, m.SyscallNative, 64, 64)
		th.Compute(simclock.Cycles(warmupVerifyBytes) * m.TrustedFileHashPerByte)
		th.Compute(m.TLSHandshakeServer)
	}

	jig := int(simclock.JitterFrom(j.ctx, p.Jitter()).Uint64n(3))
	n := jig
	if j.pre {
		n += i.syscalls.Pre
	}
	i.ocalls(true, th, n, m.SyscallNative, 16, 16)

	functional, total, err := i.requestCensus(th, acct, j.inBytes, j.outBytes, j.handler, true)

	if j.post {
		i.ocalls(true, th, i.syscalls.Post, m.SyscallNative, 16, 16)
	}
	j.bd = Breakdown{
		Functional: functional,
		Total:      total,
		ServerSide: acct.Total() - start,
	}
	return err
}

// serveViaRing submits one request into the switchless ring and blocks for
// its completion. pre/post select whether the connection-scoped Pre/Post
// machinery runs (a plain request) or is amortized by a session.
//
//shieldlint:hotpath
func (i *Instance) serveViaRing(ctx context.Context, inBytes, outBytes int, handler func(*sgx.Thread) error, first, pre, post bool) (Breakdown, error) {
	j := serveJobPool.Get().(*ringServeJob)
	j.inst, j.ctx, j.acct = i, ctx, simclock.AccountFrom(ctx)
	j.inBytes, j.outBytes, j.handler = inBytes, outBytes, handler
	j.first, j.pre, j.post = first, pre, post
	err := i.ring.Submit(ctx, j)
	bd := j.bd
	*j = ringServeJob{}
	serveJobPool.Put(j)
	return bd, err
}

// ringSessionJob runs the connection-scoped half of a switchless session:
// the accept/Pre machinery plus TLS handshake on open, the Post teardown
// on close.
type ringSessionJob struct {
	inst  *Instance
	ctx   context.Context
	first bool
	open  bool
}

//shieldlint:hotpath
func (j *ringSessionJob) Execute(*sgx.Thread) error {
	i := j.inst
	m := i.platform.Model()
	th := i.reqThread(j.ctx, simclock.AccountFrom(j.ctx))
	defer putThread(th)
	if j.open {
		if j.first {
			th.OCallExitlessN(warmupOCALLs, m.SyscallNative, 64, 64)
			th.Compute(simclock.Cycles(warmupVerifyBytes) * m.TrustedFileHashPerByte)
		}
		i.ocalls(true, th, i.syscalls.Pre, m.SyscallNative, 16, 16)
		th.Compute(m.TLSHandshakeServer)
		return nil
	}
	i.ocalls(true, th, i.syscalls.Post, m.SyscallNative, 16, 16)
	return nil
}

// sessionViaRing submits a session open (accept machinery + handshake) or
// close (teardown) into the ring.
func (i *Instance) sessionViaRing(ctx context.Context, first, open bool) error {
	j := sessionJobPool.Get().(*ringSessionJob)
	j.inst, j.ctx, j.first, j.open = i, ctx, first, open
	err := i.ring.Submit(ctx, j)
	*j = ringSessionJob{}
	sessionJobPool.Put(j)
	return err
}

// ringFnJob runs a batch entry (DoBatch) on the dispatcher: the batch
// buffers cross through shared memory (shield cost, no transitions) and fn
// executes on a thread bound to the submitting request.
type ringFnJob struct {
	inst               *Instance
	ctx                context.Context
	argBytes, retBytes int
	fn                 func(*sgx.Thread) error
}

//shieldlint:hotpath
func (j *ringFnJob) Execute(*sgx.Thread) error {
	i := j.inst
	th := i.reqThread(j.ctx, simclock.AccountFrom(j.ctx))
	defer putThread(th)
	th.ShieldTransfer(j.argBytes, j.retBytes)
	return j.fn(th)
}

// Session is one persistent keep-alive connection into the in-enclave
// HTTPS server. The connection-scoped machinery — the accept/epoll/futex
// Pre census and the server-side TLS handshake — is paid once at
// OpenSession and the Post teardown once at Close, so pipelined requests
// served through ServeOnSession pay only the per-request census. A batch
// of B requests thus spreads the Pre+Post OCALLs (81 transition pairs
// under the default profile) over B requests.
type Session struct {
	inst *Instance
	// switchless records the connection's negotiated routing: a session
	// opened through the submission ring serves and closes through it
	// too, so one connection's census never mixes the two boundary
	// disciplines.
	switchless bool
	mu         sync.Mutex
	open       bool
}

// OpenSession accepts one persistent client connection: the pre-request
// accept machinery and the server-side TLS handshake, charged to ctx's
// account once for the whole session. The first connection ever accepted
// also pays the lazy warm-up the first ServeRequest would pay.
func (i *Instance) OpenSession(ctx context.Context) (*Session, error) {
	i.mu.Lock()
	if !i.running {
		i.mu.Unlock()
		return nil, ErrNotRunning
	}
	first := !i.warm
	i.warm = true
	i.mu.Unlock()

	if i.ring != nil && sgx.SwitchlessFrom(ctx) {
		if err := i.sessionViaRing(ctx, first, true); err != nil {
			return nil, err
		}
		return &Session{inst: i, open: true, switchless: true}, nil
	}

	m := i.platform.Model()
	th := i.reqThread(ctx, simclock.AccountFrom(ctx))
	defer putThread(th)

	if first {
		th.OCallN(warmupOCALLs, m.SyscallNative, 64, 64)
		th.Compute(simclock.Cycles(warmupVerifyBytes) * m.TrustedFileHashPerByte)
	}

	i.ocalls(false, th, i.syscalls.Pre, m.SyscallNative, 16, 16)
	th.Compute(m.TLSHandshakeServer)
	return &Session{inst: i, open: true}, nil
}

// ServeOnSession runs one pipelined request on an open session. The L_F
// and L_T Breakdown windows are bit-identical to a warm ServeRequest
// under the same jitter stream; ServerSide omits exactly the amortized
// Pre/Post machinery. The keep-alive readiness wake-ups (0–2 extra
// OCALLs deciding the connection has another request queued) are drawn
// from the same jitter position ServeRequest uses for its Pre variation,
// keeping the two paths' stochastic draws aligned.
func (i *Instance) ServeOnSession(ctx context.Context, s *Session, inBytes, outBytes int, handler func(*sgx.Thread) error) (Breakdown, error) {
	i.mu.Lock()
	if !i.running {
		i.mu.Unlock()
		return Breakdown{}, ErrNotRunning
	}
	i.mu.Unlock()
	if s == nil || s.inst != i {
		return Breakdown{}, errors.New("gramine: session belongs to a different instance")
	}
	s.mu.Lock()
	open := s.open
	s.mu.Unlock()
	if !open {
		return Breakdown{}, ErrSessionClosed
	}
	if s.switchless {
		// A connection negotiated onto the ring must never mix in classic
		// serves — its census discipline was fixed at open.
		return Breakdown{}, errors.New("gramine: switchless session must be served through ServeOnSessionSwitchless")
	}

	p := i.platform
	m := p.Model()
	acct := simclock.AccountFrom(ctx)
	th := i.reqThread(ctx, acct)
	defer putThread(th)
	start := acct.Total()

	jig := int(simclock.JitterFrom(ctx, p.Jitter()).Uint64n(3))
	i.ocalls(false, th, jig, m.SyscallNative, 16, 16)

	functional, total, err := i.requestCensus(th, acct, inBytes, outBytes, handler, false)
	return Breakdown{
		Functional: functional,
		Total:      total,
		ServerSide: acct.Total() - start,
	}, err
}

// ServeOnSessionSwitchless serves a ring-negotiated session's pipelined
// request through the submission ring; sessions opened classically fall
// back to ServeOnSession. Split from ServeOnSession for the same
// escape-analysis reason as ServeRequestSwitchless.
func (i *Instance) ServeOnSessionSwitchless(ctx context.Context, s *Session, inBytes, outBytes int, handler func(*sgx.Thread) error) (Breakdown, error) {
	if s == nil || !s.switchless || i.ring == nil {
		return i.ServeOnSession(ctx, s, inBytes, outBytes, handler)
	}
	i.mu.Lock()
	if !i.running {
		i.mu.Unlock()
		return Breakdown{}, ErrNotRunning
	}
	i.mu.Unlock()
	if s.inst != i {
		return Breakdown{}, errors.New("gramine: session belongs to a different instance")
	}
	s.mu.Lock()
	open := s.open
	s.mu.Unlock()
	if !open {
		return Breakdown{}, ErrSessionClosed
	}
	return i.serveViaRing(ctx, inBytes, outBytes, handler, false, false, false)
}

// Serve is shorthand for ServeOnSession on the owning instance.
func (s *Session) Serve(ctx context.Context, inBytes, outBytes int, handler func(*sgx.Thread) error) (Breakdown, error) {
	return s.inst.ServeOnSession(ctx, s, inBytes, outBytes, handler)
}

// ServeSwitchless is shorthand for ServeOnSessionSwitchless.
func (s *Session) ServeSwitchless(ctx context.Context, inBytes, outBytes int, handler func(*sgx.Thread) error) (Breakdown, error) {
	return s.inst.ServeOnSessionSwitchless(ctx, s, inBytes, outBytes, handler)
}

// Switchless reports whether the session was negotiated onto the
// submission ring at open.
func (s *Session) Switchless() bool { return s.switchless }

// Close tears the session's connection down, paying the post-request
// machinery once for the whole pipelined batch. Closing twice, or closing
// after the instance shut down (the connection died with the enclave), is
// a free no-op.
func (s *Session) Close(ctx context.Context) error {
	s.mu.Lock()
	if !s.open {
		s.mu.Unlock()
		return nil
	}
	s.open = false
	s.mu.Unlock()

	i := s.inst
	i.mu.Lock()
	if !i.running {
		i.mu.Unlock()
		return nil
	}
	i.mu.Unlock()

	if s.switchless && i.ring != nil {
		// A ring that closed under us means the enclave is going down
		// with the connection — the same free no-op as a dead instance.
		if err := i.sessionViaRing(ctx, false, false); err != nil && !errors.Is(err, sgx.ErrRingClosed) {
			return err
		}
		return nil
	}

	m := i.platform.Model()
	th := i.reqThread(ctx, simclock.AccountFrom(ctx))
	defer putThread(th)
	i.ocalls(false, th, i.syscalls.Post, m.SyscallNative, 16, 16)
	return nil
}

// Do runs fn on the resident in-enclave process thread outside the request
// path — used for provisioning secrets into the enclave and other
// maintenance that should not be measured as a served request.
func (i *Instance) Do(ctx context.Context, fn func(*sgx.Thread) error) error {
	i.mu.Lock()
	if !i.running {
		i.mu.Unlock()
		return ErrNotRunning
	}
	i.mu.Unlock()
	// Pin the request account the way ServeRequest does: maintenance work
	// (secret provisioning, AV pool refills) must stay visible to the
	// caller's account even when nested code re-derives it from ctx.
	ctx = simclock.WithAccount(ctx, simclock.AccountFrom(ctx))
	return fn(i.proc.WithRequest(ctx))
}

// DoBatch runs fn inside one fresh ECALL instead of on the resident
// request path: a batch of K AV generations charges K× the crypto but
// exactly one EENTER/EEXIT transition pair, with argBytes/retBytes
// shielded across the boundary once for the whole batch. The entry needs
// a free TCS slot beyond the resident threads (Manifest.MaxThreads ≥
// HelperThreads+2); acquisition queues, honouring ctx cancellation, so
// concurrent refills serialise on the spare slot instead of failing.
func (i *Instance) DoBatch(ctx context.Context, argBytes, retBytes int, fn func(*sgx.Thread) error) error {
	i.mu.Lock()
	if !i.running {
		i.mu.Unlock()
		return ErrNotRunning
	}
	i.mu.Unlock()
	ctx = simclock.WithAccount(ctx, simclock.AccountFrom(ctx))
	return i.enclave.ECall(ctx, argBytes, retBytes, func(t *sgx.Thread) error {
		return fn(t.WithRequest(ctx))
	})
}

// DoBatchSwitchless crosses the batch through the submission ring instead
// of a fresh ECALL: arguments and results still pay the shield cost, but
// no transition pair and no spare TCS slot. Without a ring (or without the
// ctx flag) it falls back to the classic DoBatch; the split keeps the
// classic entry free of the pooled-job handler store (see
// ServeRequestSwitchless).
func (i *Instance) DoBatchSwitchless(ctx context.Context, argBytes, retBytes int, fn func(*sgx.Thread) error) error {
	if i.ring == nil || !sgx.SwitchlessFrom(ctx) {
		return i.DoBatch(ctx, argBytes, retBytes, fn)
	}
	i.mu.Lock()
	if !i.running {
		i.mu.Unlock()
		return ErrNotRunning
	}
	i.mu.Unlock()
	ctx = simclock.WithAccount(ctx, simclock.AccountFrom(ctx))
	j := fnJobPool.Get().(*ringFnJob)
	j.inst, j.ctx, j.fn = i, ctx, fn
	j.argBytes, j.retBytes = argBytes, retBytes
	err := i.ring.Submit(ctx, j)
	*j = ringFnJob{}
	fnJobPool.Put(j)
	return err
}

// AccrueUptime models the instance staying deployed for d of virtual time
// (timer-interrupt AEX accumulation; Table III).
func (i *Instance) AccrueUptime(d time.Duration) { i.enclave.AccrueUptime(d) }

// Stats snapshots the enclave's SGX counters.
func (i *Instance) Stats() sgx.StatsSnapshot { return i.enclave.Stats() }

// Shutdown leaves the resident threads and destroys the enclave. It is
// idempotent.
func (i *Instance) Shutdown() {
	i.mu.Lock()
	if !i.running {
		i.mu.Unlock()
		return
	}
	i.running = false
	i.mu.Unlock()

	// The ring closes first so in-flight submissions drain (completed
	// exactly once with ErrRingClosed) before the dispatcher's TCS is
	// released and the enclave torn down.
	if i.ring != nil {
		i.ring.Close()
	}
	if i.dispatcher != nil {
		i.enclave.LeaveResident(i.dispatcher)
		i.dispatcher = nil
	}
	for _, h := range i.helpers {
		i.enclave.LeaveResident(h)
	}
	i.helpers = nil
	if i.proc != nil {
		i.enclave.LeaveResident(i.proc)
		i.proc = nil
	}
	i.enclave.Destroy()
}
