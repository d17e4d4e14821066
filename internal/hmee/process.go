package hmee

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"shield5g/internal/costmodel"
	"shield5g/internal/simclock"
)

// Prices is everything that tells one guest-process backend from another.
// A plain container and a confidential VM run the same module process over
// the same kernel syscalls; the VM adds a memory-encryption tax on handler
// execution and VM exits at the device boundary.
type Prices struct {
	// WarmupCycles is the first connection's lazy library loading (no
	// trusted-file verification, so far cheaper than an enclave's).
	WarmupCycles simclock.Cycles
	// ComputePenaltyPct is the memory-encryption and nested-paging
	// overhead on handler execution, in percent.
	ComputePenaltyPct simclock.Cycles
	// VMExitCycles is one VM exit plus resume (virtio doorbell, interrupt
	// injection).
	VMExitCycles simclock.Cycles
	// ExitsPerEdge is how many VM exits each edge of a served request —
	// its arrival, its departure — takes on a paravirtual NIC.
	ExitsPerEdge uint64
}

// ContainerPrices is the plain Docker container: native cost throughout.
func ContainerPrices() Prices { return Prices{WarmupCycles: 2_000_000} }

// processStartup is the modelled deployment time of a plain container; the
// paper's Fig. 7 contrast is that the same image loads in well under a
// second without an enclave.
const processStartup = 400 * time.Millisecond

// Process is a module running as an ordinary guest process: its lifecycle,
// its in-memory secret store and its HTTPS server, every event of which is
// served by the kernel at native cost plus whatever Prices adds.
type Process struct {
	env      *costmodel.Env
	prices   Prices
	syscalls SyscallProfile
	vmExits  atomic.Uint64

	mu      sync.Mutex
	running bool
	warm    bool
	secrets map[string][16]byte
}

// NewProcess starts a guest process charging env at the given prices.
func NewProcess(env *costmodel.Env, prices Prices) *Process {
	return &Process{
		env:      env,
		prices:   prices,
		syscalls: DefaultSyscallProfile(),
		running:  true,
		secrets:  make(map[string][16]byte),
	}
}

// call is one request inside the process: the Surface its server path is
// priced through and the Exec its handler sees. Pooled like gramine's
// request — handlers are synchronous and retain neither.
type call struct {
	p    *Process
	ctx  context.Context
	acct *simclock.Account
}

var callPool = sync.Pool{New: func() any { return new(call) }}

func (c *call) charge(n simclock.Cycles) { c.p.env.ChargeTo(c.acct, n) }

func (c *call) Warmup() { c.charge(c.p.prices.WarmupCycles) }

func (c *call) Syscalls(n, out, in int) {
	m := c.p.env.Model
	c.charge(simclock.Cycles(n) * (m.SyscallNative + simclock.Cycles(out+in)*m.CopyPerByte))
}

func (c *call) ServerCompute(n simclock.Cycles) { c.charge(n) }

// Stage is free: the body sits in ordinary memory the server already paid
// to copy.
func (c *call) Stage(int) {}

// Entry is the IPC moving a batch into and out of the module process — no
// transition pair to save, which is exactly the contrast the batching
// experiment measures.
func (c *call) Entry(in, out int) {
	c.Syscalls(1, 0, in)
	c.Syscalls(1, out, 0)
}

func (c *call) Jitter() *simclock.Jitter { return c.p.env.JitterFor(c.ctx) }

func (c *call) Exec() Exec { return c }

func (c *call) Compute(n simclock.Cycles) { c.charge(n + n*c.p.prices.ComputePenaltyPct/100) }

func (c *call) Touch(nBytes uint64) {
	c.charge(simclock.Cycles(nBytes) * c.p.env.Model.CopyPerByte)
}

func (c *call) StoreSecret(name string, k [16]byte) {
	c.p.mu.Lock()
	c.p.secrets[name] = k
	c.p.mu.Unlock()
}

func (c *call) LoadSecret(name string, dst *[16]byte) (ok bool) {
	c.p.mu.Lock()
	*dst, ok = c.p.secrets[name]
	c.p.mu.Unlock()
	return ok
}

func (c *call) DeleteSecret(name string) {
	c.p.mu.Lock()
	delete(c.p.secrets, name)
	c.p.mu.Unlock()
}

// Cross is the process's one serve path (Crossing): check the request in
// against the lifecycle, resolve its phases against the warm state (exactly
// one request ever keeps Warmup), and walk them at the process's prices.
//
//shieldlint:hotpath
func (p *Process) Cross(ctx context.Context, ph Phases, in, out int, h Handler) (Breakdown, error) {
	p.mu.Lock()
	if !p.running {
		p.mu.Unlock()
		return Breakdown{}, ErrStopped
	}
	if ph&Warmup != 0 {
		if p.warm {
			ph = ph.Warm()
		}
		p.warm = true
	}
	p.mu.Unlock()

	// Pin the request account so callers without one still get coherent
	// latency windows.
	acct := simclock.AccountFrom(ctx)
	c := callPool.Get().(*call)
	c.p, c.ctx, c.acct = p, ctx, acct
	// A served request arrives and departs through the device boundary:
	// the VM exits of each edge sit outside L_T, inside the residence.
	var edge simclock.Cycles
	if ph&Body != 0 && p.prices.ExitsPerEdge != 0 {
		p.vmExits.Add(2 * p.prices.ExitsPerEdge)
		edge = simclock.Cycles(p.prices.ExitsPerEdge) * p.prices.VMExitCycles
		c.charge(edge)
	}
	bd, err := Walk(c, p.env.Model, p.syscalls, acct, ph, in, out, h)
	if edge != 0 {
		c.charge(edge)
		bd.ServerSide += 2 * edge
	}
	*c = call{}
	callPool.Put(c)
	return bd, err
}

// LoadDuration reports the modelled deployment time.
func (p *Process) LoadDuration() time.Duration { return processStartup }

// AccrueUptime models the process staying deployed for d of virtual time.
func (p *Process) AccrueUptime(d time.Duration) { p.env.Clock.AdvanceDuration(d) }

// VMExits reports the accumulated VM exit count (zero in a container).
func (p *Process) VMExits() uint64 { return p.vmExits.Load() }

// Running reports whether the process is up.
func (p *Process) Running() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.running
}

// Introspect is a read of the process's whole key store, region by name:
// plaintext, to the process itself and — in a plain container — to any
// privileged attacker on the host.
func (p *Process) Introspect() map[string][]byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string][]byte, len(p.secrets))
	for name, k := range p.secrets {
		out[name] = append([]byte(nil), k[:]...)
	}
	return out
}

// Shutdown stops the process; its secrets die with it.
func (p *Process) Shutdown() {
	p.mu.Lock()
	p.running = false
	clear(p.secrets)
	p.mu.Unlock()
}
