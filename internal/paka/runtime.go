package paka

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"shield5g/internal/costmodel"
	"shield5g/internal/hmee"
	"shield5g/internal/hmee/gramine"
	"shield5g/internal/hmee/sev"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/simclock"
)

// Isolation selects how a P-AKA module is deployed, mirroring the paper's
// three comparison points.
type Isolation int

// Isolation modes.
const (
	// Monolithic keeps the AKA functions inside the parent VNF (the
	// unmodified OAI baseline).
	Monolithic Isolation = iota + 1
	// Container extracts the functions into a plain Docker container.
	Container
	// SGX runs the extracted container inside an SGX enclave via
	// Gramine shielded containers.
	SGX
	// SEV runs the extracted container inside an AMD SEV-SNP–style
	// confidential VM — the alternative HMEE the paper discusses in
	// §IV-C: no refactoring, no per-syscall transitions, but a far
	// larger trusted computing base.
	SEV
)

// String names the isolation mode.
func (i Isolation) String() string {
	switch i {
	case Monolithic:
		return "monolithic"
	case Container:
		return "container"
	case SGX:
		return "sgx"
	case SEV:
		return "sev"
	default:
		return "unknown"
	}
}

// ParseIsolation is the inverse of String: the one place a mode's name
// (a CLI flag value) becomes an Isolation.
func ParseIsolation(name string) (Isolation, error) {
	for iso := Monolithic; iso <= SEV; iso++ {
		if iso.String() == name {
			return iso, nil
		}
	}
	return 0, fmt.Errorf("unknown isolation %q (want monolithic, container, sgx or sev)", name)
}

// Exec, Handler and Breakdown are the contract every isolation backend
// shares (package hmee), under the names the module code uses.
type (
	Exec      = hmee.Exec
	Handler   = hmee.Handler
	Breakdown = hmee.Breakdown
)

// RuntimeSession is one persistent keep-alive connection into a module
// runtime: the per-connection setup (accept machinery, TLS handshake) is
// paid at open, the teardown at close, and Serve pays only the
// per-request census. See gramine.Session for the SGX amortization
// contract.
type RuntimeSession interface {
	// Serve runs one pipelined request on the session. The Breakdown
	// windows match ServeRequest minus the amortized phases.
	Serve(ctx context.Context, inBytes, outBytes int, h Handler) (Breakdown, error)
	// Close pays the connection teardown. Closing twice, or after the
	// runtime shut down, is a free no-op.
	Close(ctx context.Context) error
}

// Runtime hosts a module's request loop under one isolation mode.
type Runtime interface {
	// ServeRequest runs one request through the modelled server path.
	ServeRequest(ctx context.Context, inBytes, outBytes int, h Handler) (Breakdown, error)
	// OpenSession opens a persistent connection for pipelined requests.
	OpenSession(ctx context.Context) (RuntimeSession, error)
	// Do runs h on the runtime's execution surface outside any request
	// (provisioning, maintenance).
	Do(ctx context.Context, h Handler) error
	// DoBatch runs h across the isolation boundary in a single crossing
	// sized argBytes in / retBytes out — under SGX one EENTER/EEXIT pair
	// (or one ring submission) for the whole batch; isolation modes
	// without per-crossing transitions treat it like Do plus the data
	// movement.
	DoBatch(ctx context.Context, argBytes, retBytes int, h Handler) error
	// LoadDuration is the modelled deployment time (Fig. 7 for SGX).
	LoadDuration() time.Duration
	// Stats snapshots SGX counters (zero for non-SGX runtimes).
	Stats() sgx.StatsSnapshot
	// AccrueUptime models d of deployed residency.
	AccrueUptime(d time.Duration)
	// Warm reports whether the first request has been served.
	Warm() bool
	// Shutdown stops the runtime and releases its resources.
	Shutdown()
}

// --- SGX runtime (Gramine shielded container) ---

// sgxRuntime hands every call straight to the instance: how a request
// crosses the enclave boundary is gramine's decision, not this layer's.
type sgxRuntime struct {
	inst *gramine.Instance
}

// newSGXRuntime launches the shielded image on the platform.
func newSGXRuntime(ctx context.Context, p *sgx.Platform, si *gramine.ShieldedImage, opts ...gramine.LaunchOption) (Runtime, error) {
	inst, err := gramine.Launch(ctx, p, si, opts...)
	if err != nil {
		return nil, err
	}
	return &sgxRuntime{inst: inst}, nil
}

func (r *sgxRuntime) ServeRequest(ctx context.Context, in, out int, h Handler) (Breakdown, error) {
	return r.inst.Serve(ctx, in, out, h)
}

func (r *sgxRuntime) OpenSession(ctx context.Context) (RuntimeSession, error) {
	sess, err := r.inst.OpenSession(ctx)
	if err != nil {
		return nil, err
	}
	return sess, nil
}

func (r *sgxRuntime) Do(ctx context.Context, h Handler) error { return r.inst.Do(ctx, h) }

func (r *sgxRuntime) DoBatch(ctx context.Context, argBytes, retBytes int, h Handler) error {
	return r.inst.DoBatch(ctx, argBytes, retBytes, h)
}

func (r *sgxRuntime) LoadDuration() time.Duration  { return r.inst.LoadDuration() }
func (r *sgxRuntime) Stats() sgx.StatsSnapshot     { return r.inst.Stats() }
func (r *sgxRuntime) AccrueUptime(d time.Duration) { r.inst.AccrueUptime(d) }
func (r *sgxRuntime) Warm() bool                   { return r.inst.Warm() }
func (r *sgxRuntime) Shutdown()                    { r.inst.Shutdown() }

// enclave exposes the underlying enclave for sealing/attestation/
// introspection demos; nil for non-SGX runtimes.
func (r *sgxRuntime) enclave() *sgx.Enclave { return r.inst.Enclave() }

// --- SEV runtime (confidential VM) ---

type sevRuntime struct {
	machine *sev.Machine
}

// newSEVRuntime launches the module inside a confidential VM.
func newSEVRuntime(ctx context.Context, env *costmodel.Env, name string, appImageBytes uint64) (Runtime, error) {
	machine, err := sev.Launch(ctx, env, sev.Config{Name: name, AppImageBytes: appImageBytes})
	if err != nil {
		return nil, err
	}
	return &sevRuntime{machine: machine}, nil
}

func (r *sevRuntime) ServeRequest(ctx context.Context, in, out int, h Handler) (Breakdown, error) {
	return r.machine.ServeRequest(ctx, in, out, h)
}

// OpenSession for SEV is a pass-through: a confidential VM pays no
// per-syscall transition tax, so there is nothing to amortize and Serve
// simply delegates to ServeRequest.
func (r *sevRuntime) OpenSession(ctx context.Context) (RuntimeSession, error) {
	return sevSession{rt: r}, nil
}

type sevSession struct {
	rt *sevRuntime
}

func (s sevSession) Serve(ctx context.Context, in, out int, h Handler) (Breakdown, error) {
	return s.rt.ServeRequest(ctx, in, out, h)
}

func (s sevSession) Close(context.Context) error { return nil }

func (r *sevRuntime) Do(ctx context.Context, h Handler) error { return r.machine.Do(ctx, h) }

func (r *sevRuntime) DoBatch(ctx context.Context, argBytes, retBytes int, h Handler) error {
	return r.Do(ctx, h)
}

func (r *sevRuntime) LoadDuration() time.Duration  { return r.machine.LoadDuration() }
func (r *sevRuntime) Stats() sgx.StatsSnapshot     { return sgx.StatsSnapshot{} }
func (r *sevRuntime) AccrueUptime(d time.Duration) {}
func (r *sevRuntime) Warm() bool                   { return r.machine.Warm() }
func (r *sevRuntime) Shutdown()                    { r.machine.Stop() }

// --- native runtime (plain container) ---

// containerStartup is the modelled plain-container deployment time; the
// paper's Fig. 7 contrast is that the same image loads in well under a
// second without an enclave.
const containerStartup = 400 * time.Millisecond

// nativeWarmupCycles models the first request's lazy library loading in a
// plain container (no trusted-file verification, so far cheaper than the
// enclave's warm-up).
const nativeWarmupCycles = 2_000_000

type nativeRuntime struct {
	env      *costmodel.Env
	syscalls hmee.SyscallProfile

	mu      sync.Mutex
	running bool
	warm    bool
	secrets map[string][]byte
}

func newNativeRuntime(env *costmodel.Env) *nativeRuntime {
	return &nativeRuntime{
		env:      env,
		syscalls: hmee.DefaultSyscallProfile(),
		running:  true,
		secrets:  make(map[string][]byte),
	}
}

type nativeExec struct {
	ctx context.Context
	rt  *nativeRuntime
}

func (e nativeExec) Compute(n simclock.Cycles) { e.rt.env.Charge(e.ctx, n) }

func (e nativeExec) Touch(nBytes uint64) {
	e.rt.env.Charge(e.ctx, simclock.Cycles(nBytes)*e.rt.env.Model.CopyPerByte)
}

func (e nativeExec) StoreSecret(name string, data []byte) {
	e.rt.mu.Lock()
	e.rt.secrets[name] = append([]byte(nil), data...)
	e.rt.mu.Unlock()
}

func (e nativeExec) LoadSecret(name string) ([]byte, bool) {
	e.rt.mu.Lock()
	defer e.rt.mu.Unlock()
	d, ok := e.rt.secrets[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), d...), true
}

// errStopped reports use of a stopped native runtime.
var errStopped = errors.New("paka: runtime stopped")

// run is the native server path: the same phases, in the same order, as
// gramine's request.Execute, each proxied syscall priced at native cost —
// so the container-vs-SGX comparison differs only in the per-event price,
// in keep-alive and batch mode too. It is the only place the native census
// is charged.
func (r *nativeRuntime) run(ctx context.Context, ph hmee.Phases, in, out int, h Handler) (Breakdown, error) {
	r.mu.Lock()
	if !r.running {
		r.mu.Unlock()
		return Breakdown{}, errStopped
	}
	if ph&hmee.Warmup != 0 {
		if r.warm {
			ph = ph.Warm()
		}
		r.warm = true
	}
	r.mu.Unlock()

	m, sp := r.env.Model, r.syscalls
	// Pin the request account so callers without one still get coherent
	// latency windows.
	acct := simclock.AccountFrom(ctx)
	ctx = simclock.WithAccount(ctx, acct)
	charge := func(n simclock.Cycles) { r.env.Charge(ctx, n) }
	syscalls := func(n, bytes int) {
		charge(simclock.Cycles(n) * (m.SyscallNative + simclock.Cycles(bytes)*m.CopyPerByte))
	}
	start := acct.Total()

	if ph&hmee.Warmup != 0 {
		charge(nativeWarmupCycles)
	}
	handshakeFirst := ph.HandshakeFirst()
	if handshakeFirst {
		charge(m.TLSHandshakeServer)
	}
	if ph&(hmee.Pre|hmee.Body) != 0 {
		n := 0
		if ph&hmee.Pre != 0 {
			n = sp.Pre
		}
		if ph&hmee.Body != 0 {
			// Keep-alive readiness wake-ups, drawn at the same jitter
			// position with or without the accept machinery before them.
			n += int(r.env.JitterFor(ctx).Uint64n(3))
		}
		syscalls(n, 32)
	}
	if ph&hmee.Handshake != 0 && !handshakeFirst {
		charge(m.TLSHandshakeServer)
	}

	var bd Breakdown
	var err error
	switch {
	case ph&hmee.Body != 0:
		totalStart := acct.Total()
		syscalls(sp.Read, in/sp.Read+1)
		charge(m.TLSRecordCost(in) + m.HTTPCost(in))

		fnStart := acct.Total()
		syscalls(sp.InHandler, 16)
		err = h.Run(nativeExec{ctx: ctx, rt: r})
		bd.Functional = acct.Total() - fnStart

		charge(m.HTTPCost(out) + m.TLSRecordCost(out))
		syscalls(sp.Write, out/sp.Write+1)
		bd.Total = acct.Total() - totalStart
	case h != nil:
		// Handler-only. An Entry adds the IPC moving the batch in and out
		// of the module process — no transition pair to save, which is
		// exactly the contrast the batching experiment measures.
		if ph&hmee.Entry != 0 {
			syscalls(1, in)
		}
		err = h.Run(nativeExec{ctx: ctx, rt: r})
		if ph&hmee.Entry != 0 {
			syscalls(1, out)
		}
	}

	if ph&hmee.Post != 0 {
		syscalls(sp.Post, 32)
	}
	bd.ServerSide = acct.Total() - start
	return bd, err
}

func (r *nativeRuntime) ServeRequest(ctx context.Context, in, out int, h Handler) (Breakdown, error) {
	return r.run(ctx, hmee.OneShot, in, out, h)
}

// OpenSession mirrors the gramine keep-alive contract natively: the
// accept machinery and TLS handshake at open, the post machinery at
// close, only the per-request census per pipelined request.
func (r *nativeRuntime) OpenSession(ctx context.Context) (RuntimeSession, error) {
	if _, err := r.run(ctx, hmee.Open, 0, 0, nil); err != nil {
		return nil, err
	}
	return &nativeSession{rt: r, open: true}, nil
}

type nativeSession struct {
	rt   *nativeRuntime
	mu   sync.Mutex
	open bool
}

func (s *nativeSession) Serve(ctx context.Context, in, out int, h Handler) (Breakdown, error) {
	s.mu.Lock()
	open := s.open
	s.mu.Unlock()
	if !open {
		return Breakdown{}, errStopped
	}
	return s.rt.run(ctx, hmee.Pipelined, in, out, h)
}

func (s *nativeSession) Close(ctx context.Context) error {
	s.mu.Lock()
	open := s.open
	s.open = false
	s.mu.Unlock()
	if !open {
		return nil
	}
	// A connection that died with the runtime closes for free.
	if _, err := s.rt.run(ctx, hmee.Close, 0, 0, nil); err != nil && !errors.Is(err, errStopped) {
		return err
	}
	return nil
}

func (r *nativeRuntime) Do(ctx context.Context, h Handler) error {
	_, err := r.run(ctx, 0, 0, 0, h)
	return err
}

func (r *nativeRuntime) DoBatch(ctx context.Context, argBytes, retBytes int, h Handler) error {
	_, err := r.run(ctx, hmee.Entry, argBytes, retBytes, h)
	return err
}

func (r *nativeRuntime) LoadDuration() time.Duration { return containerStartup }

func (r *nativeRuntime) Stats() sgx.StatsSnapshot { return sgx.StatsSnapshot{} }

func (r *nativeRuntime) AccrueUptime(d time.Duration) { r.env.Clock.AdvanceDuration(d) }

func (r *nativeRuntime) Warm() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.warm
}

func (r *nativeRuntime) Shutdown() {
	r.mu.Lock()
	r.running = false
	for k := range r.secrets {
		delete(r.secrets, k)
	}
	r.mu.Unlock()
}

// dump is the attacker's view of the plain container's memory: plaintext.
func (r *nativeRuntime) dump(name string) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.secrets[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), d...), true
}
