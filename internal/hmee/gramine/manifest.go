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
	"errors"
	"fmt"
	"math/bits"
	"strings"
)

// Manifest is the Gramine manifest for one shielded service, mirroring the
// options the paper sets (sgx.enclave_size, sgx.max_threads,
// sgx.preheat_enclave). It is built in Go and signed by BuildShielded,
// never serialised.
type Manifest struct {
	// Entrypoint is the in-enclave binary to boot.
	Entrypoint string
	// EnclaveSizeBytes is sgx.enclave_size; must be a power of two.
	EnclaveSizeBytes uint64
	// MaxThreads is sgx.max_threads. Gramine itself consumes
	// HelperThreads of them, so services need at least HelperThreads+1.
	MaxThreads int
	// PreheatEnclave is sgx.preheat_enclave: pre-fault all heap pages at
	// initialization.
	PreheatEnclave bool
	// Exitless enables switchless OCALLs served by untrusted helper
	// threads (sys.exitless). The paper flags this as insecure for
	// production; it exists for the §V-B7 optimization ablation.
	Exitless bool
	// SwitchlessECalls enables the switchless ECALL submission ring: a
	// dedicated in-enclave dispatcher thread pins one TCS and serves
	// shared-memory call submissions, so steady-state requests enter with
	// zero EENTER/EEXIT. Every request to such an enclave rides the ring
	// (Instance.Cross). Requires one thread beyond the baseline
	// (MaxThreads >= HelperThreads+2) and changes the enclave measurement
	// (see DESIGN.md §15 for the TCB delta).
	SwitchlessECalls bool
	// TrustedFiles are measured into MRENCLAVE at build time.
	TrustedFiles []TrustedFile
}

// TrustedFile is one measured manifest entry.
type TrustedFile struct {
	URI  string
	Size uint64
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

// DefaultManifest returns the manifest the paper uses for the P-AKA
// modules: 512 MiB enclave, 4 threads, preheat on.
func DefaultManifest(entrypoint string) *Manifest {
	return &Manifest{
		Entrypoint:       entrypoint,
		EnclaveSizeBytes: 512 << 20,
		MaxThreads:       4,
		PreheatEnclave:   true,
	}
}
