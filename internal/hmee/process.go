package hmee

import (
	"context"
	"sync"
	"time"

	"shield5g/internal/costmodel"
	"shield5g/internal/sbi/codec"
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
	// events counts the VM exits of the process's edges (none in a
	// container).
	events simclock.Events
	life   Lifecycle

	mu      sync.Mutex
	secrets map[codec.SUPI][16]byte
}

// NewProcess starts a guest process charging env at the given prices.
func NewProcess(env *costmodel.Env, prices Prices) *Process {
	p := &Process{
		env:      env,
		prices:   prices,
		syscalls: DefaultSyscallProfile(),
		secrets:  make(map[codec.SUPI][16]byte),
	}
	p.life.Start()
	return p
}

// call is one request inside the process: the Surface its server path is
// priced through and the Exec its handler sees. Pooled like gramine's
// request — handlers are synchronous and retain neither.
type call struct {
	p      *Process
	acct   *simclock.Account
	jitter *simclock.Jitter
}

var callPool = sync.Pool{New: func() any { return new(call) }}

func (c *call) charge(n simclock.Cycles) { c.p.env.ChargeTo(c.acct, n) }

// edge is one edge of a served request, its arrival or its departure,
// through the device boundary: its VM exits, counted and charged. A
// request that serves no body crosses none.
func (c *call) edge(served bool) {
	if n := c.p.prices.ExitsPerEdge; served && n != 0 {
		c.p.events.Count(c.acct, n, simclock.VMExit)
		c.charge(simclock.Cycles(n) * c.p.prices.VMExitCycles)
	}
}

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

func (c *call) Jitter() *simclock.Jitter { return c.jitter }

func (c *call) Exec() Exec { return c }

func (c *call) Compute(n simclock.Cycles) { c.charge(n + n*c.p.prices.ComputePenaltyPct/100) }

func (c *call) Touch(nBytes uint64) {
	c.charge(simclock.Cycles(nBytes) * c.p.env.Model.CopyPerByte)
}

func (c *call) StoreSecret(supi codec.SUPI, k [16]byte) {
	c.p.mu.Lock()
	c.p.secrets[supi] = k
	c.p.mu.Unlock()
}

func (c *call) LoadSecret(supi codec.SUPI) (k [16]byte, ok bool) {
	c.p.mu.Lock()
	k, ok = c.p.secrets[supi]
	c.p.mu.Unlock()
	return k, ok
}

func (c *call) DeleteSecret(supi codec.SUPI) {
	c.p.mu.Lock()
	delete(c.p.secrets, supi)
	c.p.mu.Unlock()
}

// Cross is the process's one serve path (Crossing): admit the request
// through the lifecycle and walk its phases at the process's prices.
func (p *Process) Cross(ctx context.Context, ph Phases, in, out int, h Handler) (Breakdown, error) {
	ph, err := p.life.Admit(ph)
	if err != nil {
		return Breakdown{}, err
	}
	defer p.life.Release()

	c := callPool.Get().(*call)
	c.p, c.acct, c.jitter = p, simclock.AccountFrom(ctx), p.env.JitterFor(ctx)
	// A served request arrives and departs through the device boundary:
	// the VM exits of each edge sit outside L_T, inside the residence.
	c.edge(ph&Body != 0)
	bd, err := Walk(c, p.env.Model, p.syscalls, c.acct, ph, in, out, h)
	c.edge(ph&Body != 0)
	*c = call{}
	callPool.Put(c)
	return bd, err
}

// LoadDuration reports the modelled deployment time.
func (p *Process) LoadDuration() time.Duration { return processStartup }

// AccrueUptime models the process staying deployed for d of virtual time.
func (p *Process) AccrueUptime(d time.Duration) { p.env.Clock.AdvanceDuration(d) }

// Events snapshots the process's counters: its VM exits, none in a
// container.
func (p *Process) Events() simclock.Counts { return p.events.Load() }

// VMExits reports the accumulated VM exit count (zero in a container).
func (p *Process) VMExits() uint64 { return p.events[simclock.VMExit].Load() }

// Running reports whether the process is up.
func (p *Process) Running() bool { return p.life.Running() }

// Introspect is a read of the process's whole key store, region by SUPI
// text (formatted here, at dump time): plaintext, to the process itself
// and — in a plain container — to any privileged attacker on the host.
func (p *Process) Introspect() map[string][]byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string][]byte, len(p.secrets))
	for supi, k := range p.secrets {
		out[supi.String()] = append([]byte(nil), k[:]...)
	}
	return out
}

// Shutdown stops the process; its secrets die with it, once the requests
// admitted before it have finished. It charges nothing and is idempotent.
func (p *Process) Shutdown(context.Context) {
	if !p.life.Stop() {
		return
	}
	p.life.Drain()
	p.mu.Lock()
	clear(p.secrets)
	p.mu.Unlock()
}
