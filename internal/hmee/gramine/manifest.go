// Package gramine simulates the Gramine LibOS and the Gramine Shielded
// Containers (GSC) toolchain the paper uses to run unmodified container
// images inside SGX enclaves.
//
// Gramine is what turns an ordinary HTTPS microservice into an enclave
// workload: it measures the container's files into the enclave identity,
// boots glibc inside the enclave, and proxies every syscall through
// OCALL/ECALL transitions. Those proxied syscalls — not the AKA
// cryptography — are where the paper finds the overhead, so this package
// models the syscall path per request in detail.
package gramine

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"strings"
)

// Manifest is the Gramine manifest for one shielded service, mirroring the
// options the paper sets (sgx.enclave_size, sgx.max_threads,
// sgx.preheat_enclave, debug/stats).
type Manifest struct {
	// Entrypoint is the in-enclave binary to boot.
	Entrypoint string `json:"entrypoint"`
	// EnclaveSizeBytes is sgx.enclave_size; must be a power of two.
	EnclaveSizeBytes uint64 `json:"enclave_size_bytes"`
	// MaxThreads is sgx.max_threads. Gramine itself consumes
	// HelperThreads of them, so services need at least HelperThreads+1.
	MaxThreads int `json:"max_threads"`
	// PreheatEnclave is sgx.preheat_enclave: pre-fault all heap pages at
	// initialization.
	PreheatEnclave bool `json:"preheat_enclave"`
	// Debug enables the debug build; required for Stats.
	Debug bool `json:"debug"`
	// Stats enables SGX statistics collection (EENTER/EEXIT/AEX counts).
	Stats bool `json:"stats"`
	// Exitless enables switchless OCALLs served by untrusted helper
	// threads (sys.exitless). The paper flags this as insecure for
	// production; it exists for the §V-B7 optimization ablation.
	Exitless bool `json:"exitless,omitempty"`
	// SwitchlessECalls enables the switchless ECALL submission ring: a
	// dedicated in-enclave dispatcher thread pins one TCS and serves
	// shared-memory call submissions, so steady-state requests enter with
	// zero EENTER/EEXIT. Every request to such an enclave rides the ring
	// (Instance.Cross). Requires one thread beyond the baseline
	// (MaxThreads >= HelperThreads+2) and changes the enclave measurement
	// (see DESIGN.md §15 for the TCB delta).
	SwitchlessECalls bool `json:"switchless_ecalls,omitempty"`
	// TrustedFiles are measured into MRENCLAVE at build time.
	TrustedFiles []TrustedFile `json:"trusted_files,omitempty"`
	// AllowedFiles bypass measurement (config the service may read).
	AllowedFiles []string `json:"allowed_files,omitempty"`
	// Env is the in-enclave environment.
	Env map[string]string `json:"env,omitempty"`
}

// TrustedFile is one measured manifest entry.
type TrustedFile struct {
	URI  string `json:"uri"`
	Size uint64 `json:"size"`
}

// HelperThreads is the number of LibOS helper threads Gramine runs for
// inter-process communication, timers/async events, and pipe TLS
// handshakes. The paper traces its 4-thread minimum to these.
const HelperThreads = 3

// Manifest validation errors.
var (
	// ErrEnclaveSize reports a non-power-of-two or zero enclave size.
	ErrEnclaveSize = errors.New("gramine: enclave size must be a nonzero power of two")
	// ErrTooFewThreads reports max_threads below HelperThreads+1; the
	// paper observes inconsistent behaviour below 4 threads.
	ErrTooFewThreads = fmt.Errorf("gramine: max_threads below %d behaves inconsistently", HelperThreads+1)
	// ErrNoEntrypoint reports a manifest without an entrypoint.
	ErrNoEntrypoint = errors.New("gramine: manifest entrypoint missing")
)

// Validate checks manifest well-formedness.
func (m *Manifest) Validate() error {
	if strings.TrimSpace(m.Entrypoint) == "" {
		return ErrNoEntrypoint
	}
	if m.EnclaveSizeBytes == 0 || bits.OnesCount64(m.EnclaveSizeBytes) != 1 {
		return fmt.Errorf("%w: got %d", ErrEnclaveSize, m.EnclaveSizeBytes)
	}
	if m.MaxThreads < HelperThreads+1 {
		return fmt.Errorf("%w: got %d", ErrTooFewThreads, m.MaxThreads)
	}
	if m.Stats && !m.Debug {
		return errors.New("gramine: stats collection requires the debug build")
	}
	if m.Exitless && m.MaxThreads < HelperThreads+2 {
		return errors.New("gramine: exitless mode needs an extra helper thread (max_threads >= 5)")
	}
	if m.SwitchlessECalls && m.MaxThreads < HelperThreads+2 {
		return errors.New("gramine: switchless ECALLs need a dedicated dispatcher TCS (max_threads >= 5)")
	}
	for _, f := range m.TrustedFiles {
		if f.URI == "" {
			return errors.New("gramine: trusted file with empty URI")
		}
	}
	return nil
}

// Encode renders the manifest as JSON (the GSC toolchain's interchange
// format in this simulation).
func (m *Manifest) Encode() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("gramine: encode manifest: %w", err)
	}
	return out, nil
}

// ParseManifest decodes and validates a manifest.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("gramine: parse manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// DefaultManifest returns the manifest the paper uses for the P-AKA
// modules: 512 MiB enclave, 4 threads, preheat on, debug+stats for metric
// collection.
func DefaultManifest(entrypoint string) *Manifest {
	return &Manifest{
		Entrypoint:       entrypoint,
		EnclaveSizeBytes: 512 << 20,
		MaxThreads:       4,
		PreheatEnclave:   true,
		Debug:            true,
		Stats:            true,
	}
}
