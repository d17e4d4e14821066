// Package sgx is a software simulation of an Intel SGX platform — the
// Hardware Mediated Execution Enclave (HMEE) instance used throughout this
// reproduction.
//
// The paper runs its P-AKA modules on real SGXv2 CPUs; this package stands
// in for that hardware. It reproduces the architectural behaviours the
// paper measures rather than the silicon itself:
//
//   - enclave build (ECREATE, EADD+EEXTEND measurement, EINIT) with the
//     near-minute load times of Fig. 7,
//   - synchronous transitions (EENTER/EEXIT for ECALLs and OCALLs) with
//     the 10k-18k cycle round-trip costs the paper cites,
//   - asynchronous exits (AEX/ERESUME) from timer interrupts and faults,
//   - EPC page accounting with paging penalties for oversized enclaves,
//   - data sealing bound to the enclave measurement, and
//   - report-based attestation rooted in a per-platform quoting key.
//
// All costs are charged to virtual time through the shared cost model, so
// experiments built on this package are deterministic.
package sgx

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"io"
	"sync"

	"shield5g/internal/costmodel"
)

// Platform is one simulated SGX-capable host. It owns the physical EPC,
// the sealing root key, and the quoting key used for attestation reports.
type Platform struct {
	// env is the platform's own timing domain, not the testbed's: its
	// clock is the uptime that drives AEX and its jitter is seeded by the
	// platform, so enclave cycles reach the request account without
	// moving the testbed clock.
	env *costmodel.Env

	epcCapacity uint64
	sealRoot    [32]byte
	qePriv      ed25519.PrivateKey
	qePub       ed25519.PublicKey

	mu       sync.Mutex
	nextID   uint64
	enclaves map[uint64]*Enclave
	epcUsed  uint64
	// backups is the host's disk of sealed files (SealBackup), one
	// directory per enclave measurement.
	backups map[[32]byte]map[string][]byte
}

// PlatformConfig configures a simulated host.
type PlatformConfig struct {
	// EPCCapacityBytes is the physical Enclave Page Cache size. The
	// paper's server has 16 GiB combined EPC. Zero selects 16 GiB.
	EPCCapacityBytes uint64
	// Seed makes all platform jitter reproducible.
	Seed uint64
}

// DefaultEPCCapacity mirrors the paper's 16 GiB combined EPC.
const DefaultEPCCapacity = 16 << 30

// NewPlatform creates a simulated SGX host.
func NewPlatform(cfg PlatformConfig) (*Platform, error) {
	if cfg.EPCCapacityBytes == 0 {
		cfg.EPCCapacityBytes = DefaultEPCCapacity
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("sgx: generate quoting key: %w", err)
	}
	p := &Platform{
		env:         costmodel.NewEnv(nil, cfg.Seed),
		epcCapacity: cfg.EPCCapacityBytes,
		qePriv:      priv,
		qePub:       pub,
		enclaves:    make(map[uint64]*Enclave),
		backups:     make(map[[32]byte]map[string][]byte),
	}
	if _, err := io.ReadFull(rand.Reader, p.sealRoot[:]); err != nil {
		return nil, fmt.Errorf("sgx: generate sealing root: %w", err)
	}
	return p, nil
}

// Env returns the platform's timing domain: its cost model, uptime clock
// and seeded jitter source.
func (p *Platform) Env() *costmodel.Env { return p.env }

// QuotingPublicKey returns the public half of the platform quoting key, the
// root of trust a remote verifier pins (standing in for Intel's attestation
// service).
func (p *Platform) QuotingPublicKey() ed25519.PublicKey { return p.qePub }

// EPCInUse reports committed EPC bytes across all live enclaves.
func (p *Platform) EPCInUse() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epcUsed
}

// MeasuredFile is one trusted file measured into the enclave identity at
// build time (Gramine manifest trusted_files entries).
type MeasuredFile struct {
	Path string
	Size uint64
	// Digest may be provided; when zero it is derived from Path and Size
	// so that identical manifests produce identical measurements.
	Digest [32]byte
}

func (f MeasuredFile) digest() [32]byte {
	var zero [32]byte
	if f.Digest != zero {
		return f.Digest
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s:%d", f.Path, f.Size)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
