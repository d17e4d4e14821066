// Package shield5g is a from-scratch Go reproduction of "Towards
// Shielding 5G Control Plane Functions" (DSN 2024): a 5G core network
// whose security-critical 5G-AKA functions are extracted into P-AKA
// microservices and shielded inside simulated SGX enclaves via a
// Gramine-style LibOS, together with the complete measurement harness
// that regenerates every table and figure of the paper's evaluation.
//
// The top-level package is the one facade: Testbed sits directly on the
// deployed slice, the experiment functions on the experiment table, and
// everything else re-exports the supported API; the implementation lives
// under internal/.
//
// Quick start:
//
//	tb, err := shield5g.NewTestbed(ctx, shield5g.SliceConfig{Isolation: shield5g.SGX})
//	sub, err := tb.AddSubscriber(ctx, key, nil)
//	sess, err := tb.Register(ctx, sub)
package shield5g

import (
	"context"
	"fmt"
	"sync/atomic"

	"shield5g/internal/chaos"
	"shield5g/internal/crypto/milenage"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/deploy"
	"shield5g/internal/experiments"
	"shield5g/internal/gnb"
	"shield5g/internal/hmee"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/ue"
)

// Isolation selects how the AKA functions are deployed.
type Isolation = paka.Isolation

// Isolation modes: the extracted container and the enclave-shielded
// deployment the paper measures.
const (
	Container = paka.Container
	SGX       = paka.SGX
	// SEV deploys the modules in AMD SEV-SNP-style confidential VMs —
	// the alternative HMEE backend of the paper's §IV-C discussion.
	SEV = paka.SEV
)

// ParseIsolation is the inverse of Isolation.String, for CLI flags.
func ParseIsolation(name string) (Isolation, error) { return paka.ParseIsolation(name) }

// SliceConfig configures a network slice deployment. Every fact of the
// deployment — isolation, crossing (SliceConfig.Switchless: every module
// request rides the ring), chaos, overload profile — is set here once;
// no run or request restates it.
type SliceConfig = deploy.SliceConfig

// Slice is a running network slice. Per-replica state lives in
// Slice.Shards; fleet figures come from its summing methods
// (AVPoolStats, AdmissionStats, ...), never from one shard.
type Slice = deploy.Slice

// Testbed is a deployed slice with provisioning and registration helpers.
type Testbed struct {
	// Slice is the running deployment.
	Slice *Slice

	// nextMSIN is atomic so AddSubscriber can be called from parallel
	// mass-registration provisioning callbacks.
	nextMSIN atomic.Int64
}

// Subscriber is a provisioned subscriber and its UE device.
type Subscriber struct {
	SUPI SUPI
	K    []byte
	OPc  []byte
	UE   *UE
}

// SUPI is a subscription permanent identifier (IMSI form).
type SUPI = suci.SUPI

// UE is a simulated device.
type UE = ue.UE

// COTSProfile reproduces commercial-device behaviour (the paper's OTA
// device is a OnePlus 8).
type COTSProfile = ue.COTSProfile

// RadioProfile models the access-side latency of the RAN.
type RadioProfile = gnb.RadioProfile

// Session is an attached UE's RAN context.
type Session = gnb.Session

// MassOptions configures a mass-registration run (see MassResult).
type MassOptions = gnb.MassOptions

// MassResult aggregates a gNBSIM mass-registration run, including
// throughput figures and per-class failure accounting.
type MassResult = gnb.MassResult

// ExperimentConfig controls experiment scale and reproducibility.
type ExperimentConfig = experiments.Config

// ChaosConfig sets the seeded fault-injection rates for a slice
// (SliceConfig.Chaos; each rate >= 0, their sum <= 1); a chaos slice runs
// the SBI deadline/retry/circuit-breaker policy.
type ChaosConfig = chaos.Config

// ChaosInjector is a slice's running fault injector (Slice.Chaos): arm or
// disarm it around workload phases and read per-kind injection counts.
type ChaosInjector = chaos.Injector

// DefaultChaosMix spreads a total per-request fault rate across the fault
// taxonomy (latency spikes, transient errors, dropped replies, AEX storms,
// EPC evictions, module crashes).
func DefaultChaosMix(seed uint64, totalRate float64) ChaosConfig {
	return chaos.DefaultMix(seed, totalRate)
}

// OverloadProfile selects the TS 29.500-style overload-control mechanisms
// of a slice (SliceConfig.Overload): bounded-queue shedding at the metered
// servers, the AMF's priority admission buckets, and client-side
// proportional throttling. The zero value is the "limiter off" baseline —
// servers sense and queue but never reject.
type OverloadProfile = deploy.OverloadProfile

// LimiterProfile is the "limiter on" overload profile of a storm
// comparison: bounded queues, the default priority admission buckets
// (emergency unlimited, re-attach generous, fresh attach tight) and client
// throttling.
func LimiterProfile() *OverloadProfile { return deploy.LimiterProfile() }

// Priority is a registration's admission priority class: fresh attach,
// re-attach or emergency, least- to most-privileged. Slice.RunStorm hands
// it to its provisioning callback and reports per class in this order.
type Priority = sbi.Priority

// NewTestbed deploys a network slice under the configured isolation mode.
// For SGX isolation this includes the full enclave build (the paper's
// Fig. 7 cost, charged to virtual time).
func NewTestbed(ctx context.Context, cfg SliceConfig) (*Testbed, error) {
	s, err := deploy.NewSlice(ctx, cfg)
	if err != nil {
		return nil, err
	}
	t := &Testbed{Slice: s}
	t.nextMSIN.Store(1)
	return t, nil
}

// Close tears the slice down.
func (t *Testbed) Close() { t.Slice.Stop() }

// AddSubscriber provisions a fresh subscriber in the UDR and the AKA
// execution environment, and returns a UE device holding the matching
// USIM credentials. A nil profile provisions a simulator UE; a COTSProfile
// gives the device a commercial handset's behaviour.
func (t *Testbed) AddSubscriber(ctx context.Context, k []byte, profile *COTSProfile) (*Subscriber, error) {
	supi := SUPI{
		MCC:  t.Slice.Config.MCC,
		MNC:  t.Slice.Config.MNC,
		MSIN: fmt.Sprintf("%010d", t.nextMSIN.Add(1)),
	}
	if len(k) != 16 {
		return nil, fmt.Errorf("shield5g: subscriber key length %d, want 16", len(k))
	}
	opc, err := milenage.ComputeOPc(k, make([]byte, 16))
	if err != nil {
		return nil, err
	}
	if err := t.Slice.ProvisionSubscriber(ctx, supi, k, opc); err != nil {
		return nil, err
	}
	device, err := ue.New(ue.Config{
		SUPI:                 supi,
		K:                    k,
		OPc:                  opc,
		HomeNetworkPublicKey: t.Slice.HomeNetworkKey.PublicKey(),
		HomeNetworkKeyID:     t.Slice.HomeNetworkKey.ID,
		Env:                  t.Slice.Env,
		Profile:              profile,
	})
	if err != nil {
		return nil, err
	}
	return &Subscriber{SUPI: supi, K: k, OPc: opc, UE: device}, nil
}

// Register runs the subscriber's UE through the full registration flow
// and returns the RAN session.
func (t *Testbed) Register(ctx context.Context, sub *Subscriber) (*Session, error) {
	return t.Slice.GNB.RegisterUE(ctx, sub.UE)
}

// Experiment is one row of the experiment table: a name, a description
// and a Run that returns the ExperimentResult to Render (and, when the
// result is an ExperimentCSV, to WriteCSV as its raw series).
type (
	Experiment       = experiments.Experiment
	ExperimentResult = experiments.Result
	ExperimentCSV    = experiments.CSVResult
)

// Experiments lists the reproducible tables and figures.
func Experiments() []string { return experiments.Names() }

// LookupExperiment finds one row of the experiment table by name.
func LookupExperiment(name string) (Experiment, error) { return experiments.Lookup(name) }

// ModuleKind identifies one of the three P-AKA modules.
type ModuleKind = paka.ModuleKind

// The P-AKA modules of the paper's Table I.
const (
	EUDM  = paka.EUDM
	EAUSF = paka.EAUSF
	EAMF  = paka.EAMF
)

// Module is one deployed P-AKA microservice.
type Module = paka.Module

// Enclave is a simulated SGX enclave (sealing, attestation,
// introspection).
type Enclave = sgx.Enclave

// Evidence is a TEE's attestation evidence — an SGX quote or an SNP report
// — signed by its platform's root key; Evidence.Verify checks it against
// that key, a reference identity and the verifier's nonce.
type Evidence = hmee.Evidence

// ErrUnseal reports sealed data that the unsealing enclave cannot open.
var ErrUnseal = sgx.ErrUnseal
