// Package sev simulates an AMD SEV-SNP–style confidential virtual
// machine, the alternative HMEE the paper discusses in §IV-C: the whole
// guest (kernel, container runtime, module) runs inside one encrypted VM,
// so applications need no refactoring and no per-syscall enclave
// transitions occur — but the trusted computing base grows to include the
// entire guest software stack, which the paper argues can make such VMs
// unsuitable for the most sensitive functions.
//
// Inside the VM the module is an ordinary guest process (hmee.Process) at
// SEV's Prices; this package adds what is SEV's own — the measured launch,
// the TCB accounting, the host's ciphertext view of guest memory and the
// SNP attestation report signed by the platform's PSP key — so the P-AKA
// modules can be deployed on either backend and compared head to head.
package sev

import (
	"context"
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"shield5g/internal/costmodel"
	"shield5g/internal/hmee"
	"shield5g/internal/simclock"
)

// Prices is the guest process's price list inside a confidential VM: the
// container's lazy loading, a 4 % SEV-SNP memory-encryption and nested
// paging overhead on handler execution, and two virtio VM exits (4 200
// cycles each: doorbell, interrupt injection — far cheaper than an SGX
// transition pair) as a request arrives and two more as it departs.
func Prices() hmee.Prices {
	return hmee.Prices{WarmupCycles: 2_000_000, ComputePenaltyPct: 4, VMExitCycles: 4_200, ExitsPerEdge: 2}
}

// Launch cost constants.
const (
	// launchDigestBytesPerSec matches the PSP's LAUNCH_UPDATE
	// measurement throughput over the initial guest memory.
	launchDigestPerByte = 6 // cycles
	// guestBootCycles models kernel + userland boot inside the VM.
	guestBootCycles = 4_800_000_000 // 2 s at 2.4 GHz
	// guestKernelBytes and guestSystemBytes are the guest software that
	// joins the TCB beyond the application image.
	guestKernelBytes = 360_000_000
	guestSystemBytes = 740_000_000
	// initialRAMBytes is the guest memory measured at launch.
	initialRAMBytes = 1 << 30
)

// Config describes one confidential VM.
type Config struct {
	// Name identifies the machine in reports.
	Name string
	// AppImageBytes is the application container image shipped into the
	// guest.
	AppImageBytes uint64
}

// Platform is one SEV-SNP host: its platform security processor's signing
// key (the VCEK analogue), which signs every guest's attestation report.
// A relying party pins the public half, as it pins an SGX platform's
// quoting key.
type Platform struct {
	psp ed25519.PrivateKey
}

// NewPlatform creates a simulated SEV-SNP host. Its key comes from
// crypto/rand, which never fails.
func NewPlatform() *Platform {
	_, psp, _ := ed25519.GenerateKey(nil)
	return &Platform{psp: psp}
}

// PublicKey returns the PSP verification key a relying party pins.
func (p *Platform) PublicKey() ed25519.PublicKey { return p.psp.Public().(ed25519.PublicKey) }

// Machine is one running confidential VM: the guest process it hosts plus
// the launch identity the PSP vouches for.
type Machine struct {
	*hmee.Process
	cfg      Config
	platform *Platform

	measurement [32]byte
	load        time.Duration
	sealKey     [32]byte
}

// Measure is the launch digest a VM launched from cfg reports: a pure
// function of the launch configuration, so a verifier derives the
// reference value from what it launched.
func Measure(cfg Config) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "sev-snp:%s:ram=%d:app=%d", cfg.Name, initialRAMBytes, cfg.AppImageBytes)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Launch measures and boots a confidential VM on the platform, charging
// the launch cost to ctx's account.
func (p *Platform) Launch(ctx context.Context, env *costmodel.Env, cfg Config) (*Machine, error) {
	if env == nil {
		return nil, errors.New("sev: nil env")
	}
	if cfg.Name == "" {
		return nil, errors.New("sev: machine name required")
	}
	m := &Machine{Process: hmee.NewProcess(env, Prices()), cfg: cfg, platform: p, measurement: Measure(cfg)}
	copy(m.sealKey[:], append([]byte("seal"), m.measurement[:]...))

	cost := simclock.Cycles(initialRAMBytes*launchDigestPerByte + guestBootCycles)
	cost = env.Jitter.Scale(cost, 0.02)
	m.load = env.Model.Duration(cost)
	env.Charge(ctx, cost)
	return m, nil
}

// Name returns the configured machine name.
func (m *Machine) Name() string { return m.cfg.Name }

// LoadDuration reports the modelled launch time.
func (m *Machine) LoadDuration() time.Duration { return m.load }

// TCBBytes reports the VM's trusted computing base: the application image
// plus the guest kernel and system userland that share the encrypted
// domain — the "large TCB" trade-off the paper highlights for secure VMs.
func (m *Machine) TCBBytes() uint64 {
	return m.cfg.AppImageBytes + guestKernelBytes + guestSystemBytes
}

// Introspect is the host's view of the guest's whole key store, region by
// name: SEV ciphertext. (Note the paper's caveat: deterministic memory
// encryption has known ciphertext side channels — CIPHERLEAKS — which is
// one reason it models only partial mitigation for some key issues.)
func (m *Machine) Introspect() map[string][]byte {
	// A deterministic keystream keyed by the VM stands in for the memory
	// encryption engine; a key is half of its first block (counter 0).
	h := sha256.New()
	h.Write(m.sealKey[:])
	h.Write(make([]byte, 8))
	var block [32]byte
	h.Sum(block[:0])
	regions := m.Process.Introspect()
	for _, plain := range regions {
		for i := range plain {
			plain[i] ^= block[i]
		}
	}
	return regions
}

// GenerateReport produces the guest's attestation evidence: its launch
// digest and reportData, signed by the platform's PSP key.
func (m *Machine) GenerateReport(reportData [64]byte) (hmee.Evidence, error) {
	if !m.Running() {
		return hmee.Evidence{}, hmee.ErrStopped
	}
	return hmee.SignEvidence(m.platform.psp, m.measurement, reportData), nil
}
