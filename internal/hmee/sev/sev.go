// Package sev simulates an AMD SEV-SNP–style confidential virtual
// machine, the alternative HMEE the paper discusses in §IV-C: the whole
// guest (kernel, container runtime, module) runs inside one encrypted VM,
// so applications need no refactoring and no per-syscall enclave
// transitions occur — but the trusted computing base grows to include the
// entire guest software stack, which the paper argues can make such VMs
// unsuitable for the most sensitive functions.
//
// The simulation mirrors the sgx package's surface (launch with
// measurement, request serving with cost accounting, sealing-grade secret
// storage, attestation reports) so the P-AKA modules can be deployed on
// either backend and compared head to head.
package sev

import (
	"context"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"shield5g/internal/costmodel"
	"shield5g/internal/hmee"
	"shield5g/internal/simclock"
)

// Cost constants of the virtualization path.
const (
	// vmExitCycles is one VM exit + resume (virtio doorbell, interrupt
	// injection): far cheaper than an SGX transition pair.
	vmExitCycles = 4_200
	// vmExitsPerRequest covers the virtio notifications of one
	// request/response on a paravirtual NIC.
	vmExitsPerRequest = 4
	// sevComputePenaltyPct is the SEV-SNP memory-encryption and nested
	// paging overhead on guest execution.
	sevComputePenaltyPct = 4
	// launchDigestBytesPerSec matches the PSP's LAUNCH_UPDATE
	// measurement throughput over the initial guest memory.
	launchDigestPerByte = 6 // cycles
	// guestBootCycles models kernel + userland boot inside the VM.
	guestBootCycles = 4_800_000_000 // 2 s at 2.4 GHz
	// guestKernelBytes and guestSystemBytes are the guest software that
	// joins the TCB beyond the application image.
	guestKernelBytes = 360_000_000
	guestSystemBytes = 740_000_000
)

// Machine lifecycle errors.
var (
	// ErrStopped reports use of a torn-down machine.
	ErrStopped = errors.New("sev: machine stopped")
)

// Config describes one confidential VM.
type Config struct {
	// Name identifies the machine in reports.
	Name string
	// AppImageBytes is the application container image shipped into the
	// guest.
	AppImageBytes uint64
	// InitialRAMBytes is the memory measured at launch (zero selects
	// 1 GiB).
	InitialRAMBytes uint64
}

// Machine is one running confidential VM.
type Machine struct {
	env *costmodel.Env
	cfg Config

	measurement  [32]byte
	launchCycles simclock.Cycles
	signPriv     ed25519.PrivateKey
	signPub      ed25519.PublicKey
	syscalls     hmee.SyscallProfile

	vmExits atomic.Uint64

	mu      sync.Mutex
	running bool
	warm    bool
	secrets map[string][]byte
	sealKey [32]byte
}

// Launch measures and boots a confidential VM, charging the launch cost
// to ctx's account.
func Launch(ctx context.Context, env *costmodel.Env, cfg Config) (*Machine, error) {
	if env == nil {
		return nil, errors.New("sev: nil env")
	}
	if cfg.Name == "" {
		return nil, errors.New("sev: machine name required")
	}
	if cfg.InitialRAMBytes == 0 {
		cfg.InitialRAMBytes = 1 << 30
	}
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		return nil, fmt.Errorf("sev: generate PSP signing key: %w", err)
	}
	m := &Machine{
		env:      env,
		cfg:      cfg,
		signPriv: priv,
		signPub:  pub,
		syscalls: hmee.DefaultSyscallProfile(),
		running:  true,
		secrets:  make(map[string][]byte),
	}

	h := sha256.New()
	fmt.Fprintf(h, "sev-snp:%s:ram=%d:app=%d", cfg.Name, cfg.InitialRAMBytes, cfg.AppImageBytes)
	copy(m.measurement[:], h.Sum(nil))
	copy(m.sealKey[:], h.Sum([]byte("seal")))

	cost := simclock.Cycles(cfg.InitialRAMBytes)*launchDigestPerByte + guestBootCycles
	cost = env.Jitter.Scale(cost, 0.02)
	m.launchCycles = cost
	env.Charge(ctx, cost)
	return m, nil
}

// Name returns the configured machine name.
func (m *Machine) Name() string { return m.cfg.Name }

// Measurement returns the SNP launch digest analogue.
func (m *Machine) Measurement() [32]byte { return m.measurement }

// LoadDuration reports the modelled launch time.
func (m *Machine) LoadDuration() time.Duration { return m.env.Model.Duration(m.launchCycles) }

// TCBBytes reports the VM's trusted computing base: the application image
// plus the guest kernel and system userland that share the encrypted
// domain — the "large TCB" trade-off the paper highlights for secure VMs.
func (m *Machine) TCBBytes() uint64 {
	return m.cfg.AppImageBytes + guestKernelBytes + guestSystemBytes
}

// VMExits reports the accumulated VM exit count.
func (m *Machine) VMExits() uint64 { return m.vmExits.Load() }

func (m *Machine) live() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.running {
		return ErrStopped
	}
	return nil
}

// Exec is the in-guest execution surface, an hmee.Exec.
type Exec struct {
	ctx context.Context
	m   *Machine
}

// Compute charges n cycles of guest execution under the SEV memory
// encryption penalty.
func (e Exec) Compute(n simclock.Cycles) {
	e.m.env.Charge(e.ctx, n+n*sevComputePenaltyPct/100)
}

// Touch charges access to n bytes of guest memory.
func (e Exec) Touch(nBytes uint64) {
	e.m.env.Charge(e.ctx, simclock.Cycles(nBytes)*e.m.env.Model.CopyPerByte)
}

// StoreSecret places sensitive material in guest memory (plaintext inside
// the VM, ciphertext to the host).
func (e Exec) StoreSecret(name string, data []byte) {
	e.m.mu.Lock()
	e.m.secrets[name] = append([]byte(nil), data...)
	e.m.mu.Unlock()
}

// LoadSecret reads sensitive material back.
func (e Exec) LoadSecret(name string) ([]byte, bool) {
	e.m.mu.Lock()
	defer e.m.mu.Unlock()
	d, ok := e.m.secrets[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), d...), true
}

// ServeRequest runs one HTTPS request through the in-guest server: the
// same syscall census as the container, served by the guest kernel at
// native cost, plus the virtio VM exits at the device boundary.
func (m *Machine) ServeRequest(ctx context.Context, inBytes, outBytes int, handler hmee.Handler) (hmee.Breakdown, error) {
	if err := m.live(); err != nil {
		return hmee.Breakdown{}, err
	}
	m.mu.Lock()
	first := !m.warm
	m.warm = true
	m.mu.Unlock()

	env := m.env
	model := env.Model
	// Pin the request account so callers without one still get coherent
	// latency windows.
	acct := simclock.AccountFrom(ctx)
	ctx = simclock.WithAccount(ctx, acct)
	charge := func(n simclock.Cycles) { env.Charge(ctx, n) }
	syscall := func(bytes int) {
		charge(model.SyscallNative + simclock.Cycles(bytes)*model.CopyPerByte)
	}
	vmexit := func() {
		m.vmExits.Add(1)
		charge(vmExitCycles)
	}
	start := acct.Total()

	if first {
		charge(2_000_000) // lazy library loading inside the guest
		charge(model.TLSHandshakeServer)
	}

	// Request arrival: virtio doorbell + interrupt injection.
	vmexit()
	vmexit()

	jig := int(env.JitterFor(ctx).Uint64n(3))
	for k := 0; k < m.syscalls.Pre+jig; k++ {
		syscall(32)
	}

	totalStart := acct.Total()
	for k := 0; k < m.syscalls.Read; k++ {
		syscall(inBytes/m.syscalls.Read + 1)
	}
	charge(model.TLSRecordCost(inBytes) + model.HTTPCost(inBytes))

	fnStart := acct.Total()
	err := handler.Run(Exec{ctx: ctx, m: m})
	fnEnd := acct.Total()

	charge(model.HTTPCost(outBytes) + model.TLSRecordCost(outBytes))
	for k := 0; k < m.syscalls.Write; k++ {
		syscall(outBytes/m.syscalls.Write + 1)
	}
	totalEnd := acct.Total()

	for k := 0; k < m.syscalls.Post; k++ {
		syscall(32)
	}
	// Response departure.
	vmexit()
	vmexit()

	return hmee.Breakdown{
		Functional: fnEnd - fnStart,
		Total:      totalEnd - totalStart,
		ServerSide: acct.Total() - start,
	}, err
}

// Do runs h in the guest outside the request path.
func (m *Machine) Do(ctx context.Context, h hmee.Handler) error {
	if err := m.live(); err != nil {
		return err
	}
	ctx = simclock.WithAccount(ctx, simclock.AccountFrom(ctx))
	return h.Run(Exec{ctx: ctx, m: m})
}

// Warm reports whether the first request has been served.
func (m *Machine) Warm() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.warm
}

// Introspect is the host's view of guest memory for the named secret:
// SEV ciphertext. (Note the paper's caveat: deterministic memory
// encryption has known ciphertext side channels — CIPHERLEAKS — which is
// one reason it models only partial mitigation for some key issues.)
func (m *Machine) Introspect(name string) ([]byte, bool) {
	m.mu.Lock()
	plain, ok := m.secrets[name]
	if !ok {
		m.mu.Unlock()
		return nil, false
	}
	plain = append([]byte(nil), plain...)
	m.mu.Unlock()

	out := make([]byte, len(plain))
	var block [32]byte
	var counter uint64
	for i := range plain {
		if i%32 == 0 {
			h := sha256.New()
			h.Write(m.sealKey[:])
			var cb [8]byte
			binary.BigEndian.PutUint64(cb[:], counter)
			h.Write(cb[:])
			copy(block[:], h.Sum(nil))
			counter++
		}
		out[i] = plain[i] ^ block[i%32]
	}
	return out, true
}

// AttestationReport is the SNP report analogue: launch digest plus caller
// data, signed by the platform security processor.
type AttestationReport struct {
	MachineName string   `json:"machine_name"`
	Measurement [32]byte `json:"measurement"`
	ReportData  [64]byte `json:"report_data"`
	Signature   []byte   `json:"signature"`
}

// GenerateReport produces a signed attestation report.
func (m *Machine) GenerateReport(reportData [64]byte) (*AttestationReport, error) {
	if err := m.live(); err != nil {
		return nil, err
	}
	r := &AttestationReport{MachineName: m.cfg.Name, Measurement: m.measurement, ReportData: reportData}
	r.Signature = ed25519.Sign(m.signPriv, r.signedBytes())
	return r, nil
}

func (r *AttestationReport) signedBytes() []byte {
	out := make([]byte, 0, len(r.MachineName)+32+64)
	out = append(out, r.MachineName...)
	out = append(out, r.Measurement[:]...)
	out = append(out, r.ReportData[:]...)
	return out
}

// SigningKey returns the PSP verification key a relying party pins.
func (m *Machine) SigningKey() ed25519.PublicKey { return m.signPub }

// VerifyReport checks a report against the PSP key.
func VerifyReport(pspKey ed25519.PublicKey, r *AttestationReport) error {
	if r == nil {
		return errors.New("sev: nil report")
	}
	if !ed25519.Verify(pspKey, r.signedBytes(), r.Signature) {
		return errors.New("sev: report signature invalid")
	}
	return nil
}

// Stop tears the machine down, flushing guest secrets.
func (m *Machine) Stop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.running = false
	for k := range m.secrets {
		delete(m.secrets, k)
	}
}
