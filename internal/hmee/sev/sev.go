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
// SNP attestation report — so the P-AKA modules can be deployed on either
// backend and compared head to head.
package sev

import (
	"context"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
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

// Machine is one running confidential VM: the guest process it hosts plus
// the launch identity the PSP vouches for.
type Machine struct {
	*hmee.Process
	cfg Config

	measurement [32]byte
	load        time.Duration
	signPriv    ed25519.PrivateKey
	signPub     ed25519.PublicKey
	sealKey     [32]byte
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
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		return nil, fmt.Errorf("sev: generate PSP signing key: %w", err)
	}
	m := &Machine{Process: hmee.NewProcess(env, Prices()), cfg: cfg, signPriv: priv, signPub: pub}

	h := sha256.New()
	fmt.Fprintf(h, "sev-snp:%s:ram=%d:app=%d", cfg.Name, initialRAMBytes, cfg.AppImageBytes)
	copy(m.measurement[:], h.Sum(nil))
	copy(m.sealKey[:], h.Sum([]byte("seal")))

	cost := simclock.Cycles(initialRAMBytes*launchDigestPerByte + guestBootCycles)
	cost = env.Jitter.Scale(cost, 0.02)
	m.load = env.Model.Duration(cost)
	env.Charge(ctx, cost)
	return m, nil
}

// Name returns the configured machine name.
func (m *Machine) Name() string { return m.cfg.Name }

// Measurement returns the SNP launch digest analogue.
func (m *Machine) Measurement() [32]byte { return m.measurement }

// LoadDuration reports the modelled launch time.
func (m *Machine) LoadDuration() time.Duration { return m.load }

// TCBBytes reports the VM's trusted computing base: the application image
// plus the guest kernel and system userland that share the encrypted
// domain — the "large TCB" trade-off the paper highlights for secure VMs.
func (m *Machine) TCBBytes() uint64 {
	return m.cfg.AppImageBytes + guestKernelBytes + guestSystemBytes
}

// Introspect is the host's view of guest memory for the named secret:
// SEV ciphertext. (Note the paper's caveat: deterministic memory
// encryption has known ciphertext side channels — CIPHERLEAKS — which is
// one reason it models only partial mitigation for some key issues.)
func (m *Machine) Introspect(name string) ([]byte, bool) {
	plain, ok := m.Process.Introspect(name)
	if !ok {
		return nil, false
	}
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
	if !m.Running() {
		return nil, hmee.ErrStopped
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
