package paka

import (
	"context"
	"errors"
	"fmt"
	"time"

	"shield5g/internal/hmee"
	"shield5g/internal/hmee/gramine"
	"shield5g/internal/hmee/sev"
	"shield5g/internal/hmee/sgx"
)

// Isolation selects how a P-AKA module is deployed: the paper's two
// measured points, a plain container and SGX, plus SEV.
type Isolation int

// Isolation modes. The values start at 2 and are never renumbered: the
// module experiments derive their jitter seeds from them.
const (
	// Container extracts the functions into a plain Docker container.
	Container Isolation = iota + 2
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
	for iso := Container; iso <= SEV; iso++ {
		if iso.String() == name {
			return iso, nil
		}
	}
	return 0, fmt.Errorf("unknown isolation %q (want container, sgx or sev)", name)
}

// Exec, Handler and Breakdown are the contract every isolation backend
// shares (package hmee), under the names the module code uses.
type (
	Exec      = hmee.Exec
	Handler   = hmee.Handler
	Breakdown = hmee.Breakdown
)

// Runtime hosts a module's request loop under one isolation mode. The
// backends satisfy it as themselves — *gramine.Instance, *hmee.Process
// (the plain container), *sev.Machine — and all three serve a request by
// the same hmee.Walk at their own prices.
type Runtime interface {
	// Crossing is the one verb that takes work over the isolation
	// boundary; the phase set says what kind: hmee.OneShot a request that
	// brings its own connection, hmee.Open, hmee.Pipelined and hmee.Close
	// a keep-alive connection's accept, requests and teardown, hmee.Entry
	// a batch whose bytes cross once (under SGX one EENTER/EEXIT pair or
	// one ring submission), the zero set maintenance outside any request.
	hmee.Crossing
	// LoadDuration is the modelled deployment time (Fig. 7 for SGX).
	LoadDuration() time.Duration
	// AccrueUptime models d of deployed residency.
	AccrueUptime(d time.Duration)
	// Introspect is the privileged host's view of the runtime's whole key
	// store, region by name: plaintext in a container, ciphertext under SGX
	// or SEV.
	Introspect() map[string][]byte
	// Shutdown stops the runtime and releases its resources.
	Shutdown()
}

// launch deploys the runtime cfg describes, charging its load cost — for
// SGX the GSC build and enclave load, for SEV the measured boot — to ctx's
// account. New and Restart share it, so a restarted module is redeployed
// exactly as it was first deployed.
func launch(ctx context.Context, cfg Config, profile Profile) (Runtime, error) {
	switch cfg.Isolation {
	case Container:
		return hmee.NewProcess(cfg.Env, hmee.ContainerPrices()), nil
	case SGX:
		if cfg.Platform == nil {
			return nil, errors.New("paka: SGX isolation requires Config.Platform")
		}
		si, err := shieldedImage(cfg, profile)
		if err != nil {
			return nil, err
		}
		var opts []gramine.LaunchOption
		if cfg.UserLevelTCP {
			opts = append(opts, gramine.WithSyscallProfile(hmee.UserTCPSyscallProfile()))
		}
		return gramine.Launch(ctx, cfg.Platform, si, opts...)
	case SEV:
		if cfg.SEVHost == nil {
			return nil, errors.New("paka: SEV isolation requires Config.SEVHost")
		}
		return cfg.SEVHost.Launch(ctx, cfg.Env, vmConfig(cfg, profile))
	default:
		return nil, fmt.Errorf("paka: isolation %s not deployable as a module", cfg.Isolation)
	}
}

// vmConfig is the confidential VM a module of cfg's kind launches as.
func vmConfig(cfg Config, profile Profile) sev.Config {
	return sev.Config{Name: cfg.Kind.ServiceName() + "-vm", AppImageBytes: profile.ImageBytes}
}

// Reference is the identity a module deployed from cfg must attest to,
// computed from its build recipe alone: under SGX the measurement of the
// GSC image cfg builds (cfg.SignKey signs it), under SEV the launch digest
// of the VM cfg launches. A verifier compares evidence against it, never
// against anything the module reports about itself. A container has the
// zero identity, which no evidence reports.
func Reference(cfg Config) ([32]byte, error) {
	profile := Profiles()[cfg.Kind]
	switch cfg.Isolation {
	case SGX:
		si, err := shieldedImage(cfg, profile)
		if err != nil {
			return [32]byte{}, err
		}
		return sgx.Measure(si.EnclaveConfig()), nil
	case SEV:
		return sev.Measure(vmConfig(cfg, profile)), nil
	}
	return [32]byte{}, nil
}
