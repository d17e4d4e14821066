// Package deploy composes complete 5G network slices: the service-chained
// VNFs (NRF, UDR, UDM, AUSF, AMF, SMF, UPF), the P-AKA execution
// environments under the chosen isolation mode, the gNB, and subscriber
// provisioning — the testbed of the paper's Fig. 4.
//
// Per the paper's co-location requirement (§IV-B), the P-AKA modules are
// deployed on the same simulated host as their parent VNFs: every module
// enclave is built on the slice's single SGX platform, and the
// cryptographic parameters never leave that host.
//
// A slice is N >= 1 shards: vertical replicas of the authentication chain
// (AMF -> AUSF -> UDM -> P-AKA modules, see replicas.go) behind
// SUPI-affinity routing at the gNB. NRF, UDR, SMF and UPF are shared.
package deploy

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"sync"

	"shield5g/internal/admission"
	"shield5g/internal/chaos"
	"shield5g/internal/costmodel"
	"shield5g/internal/crypto/kdf"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/gnb"
	"shield5g/internal/hmee/sev"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/nf/amf"
	"shield5g/internal/nf/ausf"
	"shield5g/internal/nf/nrf"
	"shield5g/internal/nf/nrf/topo"
	"shield5g/internal/nf/smf"
	"shield5g/internal/nf/udm"
	"shield5g/internal/nf/udr"
	"shield5g/internal/nf/upf"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
	"shield5g/internal/topology"
)

// SliceConfig describes one network slice deployment.
type SliceConfig struct {
	// Isolation selects how the AKA functions run: Monolithic (inside
	// the VNFs), Container (extracted, unprotected), or SGX (extracted
	// and enclave-shielded).
	Isolation paka.Isolation
	// MCC/MNC is the serving PLMN (the paper's OTA test uses 001/01).
	MCC, MNC string
	// Seed makes the slice's virtual-time jitter reproducible.
	Seed uint64
	// Radio selects the access profile (gNBSIM default).
	Radio gnb.RadioProfile
	// Chaos enables the deterministic fault injector on every SBI client
	// of the slice (nil disables injection). The injector is armed as the
	// slice finishes deploying; use Slice.Chaos to disarm around
	// provisioning or to read injection counts. A chaos slice runs the
	// SBI deadline/retry/circuit-breaker policy (injected faults would
	// otherwise turn every hit into a hard failure). NewSlice rejects a
	// negative rate or rates summing above 1.
	Chaos *chaos.Config
	// AVPoolDepth enables the UDM's authentication-vector precomputation
	// pool (vectors banked per SUPI, minted AVPoolDepth per batch
	// crossing, two on a SUPI's first contact); 0 disables it, keeping the
	// seed's one-crossing-per-AV path.
	AVPoolDepth int
	// BinarySBI opts every SBI client of the slice into binary frames
	// (sbi.Client.EnableBinary): after its first request to a peer, a
	// client sends every message that has a field description as a
	// zero-copy length-prefixed frame and the server answers in kind. Off
	// keeps the seed-identical JSON wire format everywhere.
	BinarySBI bool
	// Overload enables the TS 29.500-style overload-control layer: load
	// meters on the authentication-chain servers, optional bounded-queue
	// shedding, the AMF's priority admission controller, and client-side
	// proportional throttling. nil leaves the slice seed-identical. The
	// machinery starts disarmed — SetOverloadArmed opens the storm window.
	Overload *OverloadProfile
	// Replicas is the number of shards: vertical replicas of the
	// authentication chain (AMF -> AUSF -> UDM -> P-AKA modules each)
	// behind SUPI-affinity rendezvous routing at the gNB, with the NRF
	// pushing versioned topology snapshots to the data plane. Values below
	// 1 mean 1. NRF, UDR, SMF and UPF stay shared across replicas.
	Replicas int
	// ShardSize caps each tenant's (gNB, PLMN) shuffle shard to this many
	// replicas, so a noisy tenant only degrades its own subset; 0 lets
	// every tenant route across all replicas.
	ShardSize int
	// Switchless deploys every SGX module with the switchless ECALL
	// submission ring (paka.Config.Switchless): a dedicated in-enclave
	// dispatcher thread serves shared-memory call submissions, so
	// steady-state requests cross with zero EENTER/EEXIT. Requests still
	// opt in per call (paka.WithSwitchless); off keeps the slice
	// bit-identical to the classic-ECALL deployment. SGX only.
	Switchless bool
}

// OverloadProfile selects which overload-control mechanisms a slice runs.
// The zero-value profile is the "limiter off" comparison point: servers
// sense and queue (so a storm's FIFO delay is modelled) but never shed,
// nothing gates admission, and clients never throttle.
type OverloadProfile struct {
	// Shed bounds each metered server's virtual queue; arrivals beyond the
	// bound are rejected 503 OVERLOAD (emergency exempt).
	Shed bool
	// Admission configures the AMF's per-(gNB, PLMN) priority token
	// buckets; nil disables admission control. The Clock field may be left
	// nil — the slice's clock is filled in.
	Admission *admission.Config
	// Throttle makes SBI clients defer work proportionally to
	// peer-advertised load (emergency traffic exempt).
	Throttle bool
}

// Modelled per-request service costs of the metered servers, in cycles —
// the drain rates of their virtual queues. The UDM is the chain's
// bottleneck (SUCI de-concealment plus AV generation behind the enclave
// boundary); the module servers are cheaper per call.
const (
	udmServiceCycles   = 3_600_000
	ausfServiceCycles  = 800_000
	eudmServiceCycles  = 1_600_000
	eausfServiceCycles = 400_000
	eamfServiceCycles  = 400_000
)

// poolBiasWeight scales the UDM's windowed AV-pool miss fraction before it
// is added to the advertised load (see SetOverloadArmed).
const poolBiasWeight = 0.25

// Slice is a running network slice.
type Slice struct {
	Config   SliceConfig
	Env      *costmodel.Env
	Platform *sgx.Platform
	Registry *sbi.Registry

	NRF  *nrf.NRF
	UDR  *udr.UDR
	UDM  *udm.UDM
	AUSF *ausf.AUSF
	AMF  *amf.AMF
	SMF  *smf.SMF
	UPF  *upf.UPF
	GNB  *gnb.GNB

	// Modules holds the extracted P-AKA modules (empty for Monolithic).
	// Populated once inside NewSlice before the Slice is published and
	// read-only afterwards; attestMu guards attested, not this map.
	//shieldlint:ignore stripemap immutable after construction
	Modules map[paka.ModuleKind]*paka.Module

	// MonoUDM is the in-process key store for Monolithic isolation.
	MonoUDM *paka.MonolithicUDM

	// HomeNetworkKey conceals/de-conceals SUPIs for this home network.
	HomeNetworkKey *suci.HomeNetworkKey

	// Chaos is the slice's fault injector (nil when SliceConfig.Chaos was
	// nil). Crash faults on the P-AKA module services restart the module
	// through RestartModule.
	Chaos *chaos.Injector

	// Admission is the AMF's priority admission controller (nil unless
	// SliceConfig.Overload.Admission was set): shard 0's controller, see
	// Shards for the rest. Disarmed until SetOverloadArmed(true).
	Admission *admission.Controller

	// Shards lists the vertical core replicas in shard-index order, at
	// least one. The top-level UDM/AUSF/AMF/Modules/MonoUDM/Admission
	// fields alias Shards[0]'s.
	Shards []*CoreShard

	// Topology is the NRF's snapshot builder — the control plane that
	// pushes routing snapshots into Router.
	Topology *topo.Builder
	// Router is the gNB's data-plane routing view (last-known-good
	// snapshot).
	Router *topology.Router

	// resilience wraps every SBI client of the slice in the resilience
	// layer: a chaos slice needs retries (injected faults would otherwise
	// turn every hit into a hard failure), and a throttling profile lives
	// in that layer too.
	resilience bool

	// provisioning is the operator's one UDR client, shared by every
	// ProvisionSubscriber call: its first request opens the mutual-TLS
	// session, and later ones reuse it (and its binary framing).
	provisioning *udr.Client

	// resilMu guards resilients: every resilient invoker the slice built,
	// for ResilienceStats aggregation.
	resilMu    sync.Mutex
	resilients []*sbi.ResilientClient

	// metered tracks the servers carrying load meters, for arming;
	// udmBias pairs each UDM replica's meter with its UDM (the meter
	// additionally carries the windowed AV-pool bias).
	metered []*sbi.Server
	udmBias []udmBiasTarget

	attestMu sync.Mutex
	attested map[*paka.Module]bool
}

// udmBiasTarget pairs a UDM front server's load meter with the UDM whose
// pool counters feed its advertised-load bias.
type udmBiasTarget struct {
	srv *sbi.Server
	udm *udm.UDM
}

// CoreShard is one vertical replica of the core: the UDM, AUSF and AMF
// replica plus their private P-AKA module set, bound to each other at
// construction (no NRF lookup in any request path).
type CoreShard struct {
	Index int
	// Name is the replica's stable routing identity ("shard-<i>").
	Name string

	UDM  *udm.UDM
	AUSF *ausf.AUSF
	AMF  *amf.AMF

	// Modules holds the shard's P-AKA modules (empty for Monolithic).
	//shieldlint:ignore stripemap immutable after construction
	Modules map[paka.ModuleKind]*paka.Module
	// MonoUDM is the shard's in-process key store under Monolithic
	// isolation.
	MonoUDM *paka.MonolithicUDM

	// Remote clients expose the VNF-side response-time recorders (nil
	// for Monolithic).
	RemoteUDM  *paka.Remote
	RemoteAUSF *paka.Remote
	RemoteAMF  *paka.Remote

	// Admission is the shard AMF's priority admission controller (nil
	// unless overload admission is configured). Per-shard buckets keep
	// tenant isolation composable with shuffle-sharding: a tenant's
	// storm drains only its own shard's buckets.
	Admission *admission.Controller

	// UDMService/AUSFService are the shard's SBI service names, for
	// overload metering and diagnostics.
	UDMService  string
	AUSFService string
}

// newSliceBase is NewSlice's prologue: defaults, the cost environment and
// SGX platform, the (disarmed) fault injector, the resilience profile, the
// home-network key, and the shared NRF and UDR — in exactly this order,
// which fixes the jitter draws every same-seed golden depends on.
func newSliceBase(cfg SliceConfig) (*Slice, error) {
	if cfg.Chaos != nil {
		if err := cfg.Chaos.Validate(); err != nil {
			return nil, fmt.Errorf("deploy: %w", err)
		}
	}
	if cfg.MCC == "" {
		cfg.MCC = "001"
	}
	if cfg.MNC == "" {
		cfg.MNC = "01"
	}
	if cfg.Isolation == 0 {
		cfg.Isolation = paka.SGX
	}
	cfg.Replicas = max(cfg.Replicas, 1)
	env := costmodel.NewEnv(nil, cfg.Seed)
	var platform *sgx.Platform
	if cfg.Isolation == paka.SGX {
		var err error
		if platform, err = sgx.NewPlatform(sgx.PlatformConfig{Seed: cfg.Seed}); err != nil {
			return nil, fmt.Errorf("deploy: SGX platform: %w", err)
		}
	}

	s := &Slice{
		Config:   cfg,
		Env:      env,
		Platform: platform,
		Registry: sbi.NewRegistry(),
		attested: make(map[*paka.Module]bool),
	}
	if cfg.Chaos != nil {
		s.Chaos = chaos.NewInjector(env, *cfg.Chaos)
		// Deployment itself (NRF registration, discovery, module build)
		// runs fault-free; armChaos arms the injector once the slice is up.
		s.Chaos.SetArmed(false)
	}
	s.resilience = cfg.Chaos != nil || throttles(cfg)

	var err error
	if s.HomeNetworkKey, err = suci.GenerateHomeNetworkKey(rand.Reader, 1); err != nil {
		return nil, fmt.Errorf("deploy: home network key: %w", err)
	}
	if s.NRF, err = nrf.New(env, s.Registry); err != nil {
		return nil, fmt.Errorf("deploy: NRF: %w", err)
	}
	if s.UDR, err = udr.New(env, s.Registry); err != nil {
		return nil, fmt.Errorf("deploy: UDR: %w", err)
	}
	s.provisioning = udr.NewClient(s.buildInvoker("provisioning"))
	return s, nil
}

// NewSlice builds and starts a slice: the shared infrastructure, then each
// shard's module set and VNF chain (buildShard), then the topology control
// plane publishing epoch 1, then the gNB. For SGX isolation the enclave
// build cost (Fig. 7) is charged to ctx's account.
func NewSlice(ctx context.Context, cfg SliceConfig) (*Slice, error) {
	s, err := newSliceBase(cfg)
	if err != nil {
		return nil, err
	}
	cfg, env := s.Config, s.Env

	// The rest of the shared control and user plane — one of each across
	// all shards, like the base's NRF and UDR.
	if s.UPF, err = upf.New(env, s.Registry); err != nil {
		return nil, fmt.Errorf("deploy: UPF: %w", err)
	}
	smfInvoker := s.buildInvoker(smf.ServiceName)
	if s.SMF, err = smf.New(ctx, smf.Config{Env: env, Registry: s.Registry, Invoker: smfInvoker}); err != nil {
		return nil, fmt.Errorf("deploy: SMF: %w", err)
	}

	// One GSC signing key for all module images of this operator (only
	// drawn when modules are actually extracted).
	var signKey ed25519.PrivateKey
	if cfg.Isolation != paka.Monolithic {
		if _, signKey, err = ed25519.GenerateKey(rand.Reader); err != nil {
			return nil, fmt.Errorf("deploy: GSC sign key: %w", err)
		}
	}

	amfs := make([]*amf.AMF, cfg.Replicas)
	replicas := make([]topology.Replica, cfg.Replicas)
	for r := range amfs {
		shard, err := s.buildShard(ctx, r, signKey)
		if err != nil {
			return nil, err
		}
		s.Shards = append(s.Shards, shard)
		amfs[r] = shard.AMF
		replicas[r] = topology.Replica{Index: r, Name: shard.Name}
	}

	// The top-level fields alias shard 0, so code that wants "the" UDM or
	// module set (experiments, tests, tooling) observes the first replica.
	first := s.Shards[0]
	s.UDM, s.AUSF, s.AMF = first.UDM, first.AUSF, first.AMF
	s.Modules = first.Modules
	s.MonoUDM = first.MonoUDM
	s.Admission = first.Admission

	// Topology control plane: the NRF's builder owns the authoritative
	// replica set and pushes sealed snapshots into the gNB's router. The
	// router is subscribed before the first publish, so epoch 1 is its
	// catch-up-free baseline.
	s.Topology = topo.NewBuilder()
	s.Router = topology.NewRouter()
	s.Topology.SetReplicas(replicas)
	s.Topology.SetShardSize(cfg.ShardSize)
	if err := s.Topology.Subscribe(s.Router); err != nil {
		return nil, fmt.Errorf("deploy: router subscription: %w", err)
	}
	if res := s.Topology.Publish(); res.Nacked > 0 {
		return nil, fmt.Errorf("deploy: initial topology push nacked (epoch %d)", res.Epoch)
	}

	if s.GNB, err = gnb.New(gnb.Config{
		Env: env, AMFs: amfs, Router: s.Router, UPF: s.UPF,
		MCC: cfg.MCC, MNC: cfg.MNC, Radio: cfg.Radio,
	}); err != nil {
		return nil, fmt.Errorf("deploy: gNB: %w", err)
	}

	s.armChaos()
	s.wireOverload()
	return s, nil
}

// newAdmission builds one AMF's priority admission controller, nil unless
// the overload profile configures one.
func newAdmission(cfg SliceConfig, env *costmodel.Env) *admission.Controller {
	if cfg.Overload == nil || cfg.Overload.Admission == nil {
		return nil
	}
	acfg := *cfg.Overload.Admission
	if acfg.Clock == nil {
		acfg.Clock = env.Clock
	}
	return admission.NewController(acfg)
}

// reprovisionHook is what a UDM gets from its eUDM module m (nil under
// Monolithic isolation): it pushes a long-term key back into an execution
// environment that lost its key store to a crash-restart (the container
// runtime keeps no sealed backup).
func reprovisionHook(m *paka.Module) func(context.Context, string, []byte) error {
	if m == nil {
		return nil
	}
	return m.ProvisionSubscriber
}

// armChaos points the fault injector at every shard's modules and arms it.
func (s *Slice) armChaos() {
	if s.Chaos == nil {
		return
	}
	for _, shard := range s.Shards {
		for kind, m := range shard.Modules {
			if e := m.Enclave(); e != nil {
				s.Chaos.RegisterEnclave(m.ServiceName(), e)
			}
			kind, idx := kind, shard.Index
			s.Chaos.RegisterCrash(m.ServiceName(), func(ctx context.Context) error {
				return s.RestartShardModule(ctx, idx, kind)
			})
		}
	}
	s.Chaos.SetArmed(true)
}

// wireOverload attaches load meters to the authentication-chain servers
// according to the slice's overload profile. Meters start disarmed, so the
// slice stays seed-identical until SetOverloadArmed opens a storm window.
func (s *Slice) wireOverload() {
	p := s.Config.Overload
	if p == nil {
		return
	}
	maxQueue := func(n int) int {
		if !p.Shed {
			return 0 // sense and queue only: the "limiter off" baseline
		}
		return n
	}
	attach := func(service string, cost simclock.Cycles, queue int) *sbi.Server {
		srv, ok := s.Registry.Lookup(service)
		if !ok {
			return nil
		}
		srv.EnableOverload(s.Env, sbi.OverloadConfig{
			ServiceCycles: cost,
			MaxQueue:      maxQueue(queue),
		})
		s.metered = append(s.metered, srv)
		return srv
	}
	moduleCost := map[paka.ModuleKind]simclock.Cycles{
		paka.EUDM:  eudmServiceCycles,
		paka.EAUSF: eausfServiceCycles,
		paka.EAMF:  eamfServiceCycles,
	}
	// Every replica's servers meter independently — per-replica OCI state
	// is what lets one hot shard advertise overload while its siblings
	// keep accepting. The UDM bias (windowed AV-pool miss pressure) is
	// installed when the window is armed — see SetOverloadArmed.
	for _, shard := range s.Shards {
		if srv := attach(shard.UDMService, udmServiceCycles, 12); srv != nil {
			s.udmBias = append(s.udmBias, udmBiasTarget{srv: srv, udm: shard.UDM})
		}
		attach(shard.AUSFService, ausfServiceCycles, 16)
		for kind, m := range shard.Modules {
			attach(m.ServiceName(), moduleCost[kind], 16)
		}
	}
}

// SetOverloadArmed opens (true) or closes (false) the overload-control
// window: every load meter starts/stops sensing and the admission
// controller starts/stops gating. Closing resets meter and bucket state so
// consecutive storm windows start identically.
func (s *Slice) SetOverloadArmed(v bool) {
	if v {
		// AV-pool miss pressure rides each UDM replica's advert so pool
		// thrash shows up in the OCI before the virtual queue saturates.
		// The fraction is windowed from the arming instant — cumulative
		// counters are dominated by cold-start misses (every subscriber's
		// first authentication is one) and would advertise phantom
		// overload — and weighted down because a storm's fresh-attach
		// share misses by construction, which is demand, not thrash.
		for _, t := range s.udmBias {
			t := t
			h0, m0 := t.udm.PoolCounters()
			t.srv.SetLoadBias(func() float64 {
				h, m := t.udm.PoolCounters()
				dh, dm := h-h0, m-m0
				if total := dh + dm; total > 0 {
					return poolBiasWeight * float64(dm) / float64(total)
				}
				return 0
			})
		}
	}
	for _, srv := range s.metered {
		srv.SetOverloadArmed(v)
	}
	for _, shard := range s.Shards {
		if shard.Admission != nil {
			shard.Admission.SetArmed(v)
		}
	}
}

// OverloadStats snapshots the per-service meter counters of every metered
// server, keyed by service name.
func (s *Slice) OverloadStats() map[string]sbi.OverloadStats {
	out := make(map[string]sbi.OverloadStats, len(s.metered))
	for _, srv := range s.metered {
		out[srv.Name()] = srv.OverloadStats()
	}
	return out
}

// ResilienceStats merges the retry/breaker counters of every resilient
// invoker the slice built (zero when resilience is disabled).
func (s *Slice) ResilienceStats() sbi.ResilienceStats {
	var stats sbi.ResilienceStats
	s.resilMu.Lock()
	for _, r := range s.resilients {
		stats.Merge(r.Stats())
	}
	s.resilMu.Unlock()
	return stats
}

// buildInvoker assembles the slice's SBI client stack for one caller
// identity: the in-process transport, wrapped by the fault injector (so
// injected faults land below the retry layer and are actually retried)
// and then by the resilience layer.
func (s *Slice) buildInvoker(from string) sbi.Invoker {
	client := sbi.NewClient(from, s.Env, s.Registry)
	if s.Config.BinarySBI {
		client.EnableBinary()
	}
	var inv sbi.Invoker = client
	if s.Chaos != nil {
		inv = s.Chaos.Wrap(inv)
	}
	if s.resilience {
		var peers sbi.OCISource
		if throttles(s.Config) {
			// The base client records each peer's freshest OCI advert; the
			// resilience layer reads it back to throttle proportionally.
			peers = client
		}
		r := sbi.NewResilient(inv, s.Env, peers)
		s.resilMu.Lock()
		s.resilients = append(s.resilients, r)
		s.resilMu.Unlock()
		inv = r
	}
	return inv
}

// throttles reports whether cfg's overload profile makes SBI clients
// defer work proportionally to peer-advertised load.
func throttles(cfg SliceConfig) bool {
	return cfg.Overload != nil && cfg.Overload.Throttle
}

// moduleConfig is the one paka.Config the slice deploys replica r's module
// of kind with; every replica runs the same operator-signed image.
func (s *Slice) moduleConfig(kind paka.ModuleKind, r int, signKey ed25519.PrivateKey) paka.Config {
	cfg := s.Config
	return paka.Config{
		Kind:      kind,
		Replica:   r,
		Isolation: cfg.Isolation,
		Env:       s.Env,
		Platform:  s.Platform,
		Registry:  s.Registry,
		SignKey:   signKey,
		// Pool refills enter the enclave via batch ECALLs, which need a
		// TCS slot the resident threads do not hold.
		ReserveBatchTCS: kind == paka.EUDM && cfg.AVPoolDepth > 0,
		Switchless:      cfg.Switchless,
	}
}

// attestEUDM verifies the eUDM execution environment's hardware-rooted
// attestation evidence before any subscriber key is released to it — the
// Key Issue 12/13 deployment-validation step of the paper's discussion.
// It runs once per eUDM replica and is a no-op for non-TEE isolation.
func (s *Slice) attestEUDM(m *paka.Module) error {
	s.attestMu.Lock()
	defer s.attestMu.Unlock()
	if s.attested[m] {
		return nil
	}
	if err := s.verifyAttestation(m); err != nil {
		return err
	}
	s.attested[m] = true
	return nil
}

// verifyAttestation checks a module's hardware-rooted evidence (SGX quote
// or SNP report); non-TEE modules pass trivially.
func (s *Slice) verifyAttestation(m *paka.Module) error {
	var nonce [64]byte
	copy(nonce[:], []byte("subscriber-provisioning-channel"))
	switch {
	case m.Enclave() != nil:
		quote, err := m.Enclave().GenerateQuote(nonce)
		if err != nil {
			return fmt.Errorf("deploy: %s quote: %w", m.Kind(), err)
		}
		expected := m.Enclave().Measurement()
		if err := sgx.VerifyQuote(s.Platform.QuotingPublicKey(), quote, &expected); err != nil {
			return fmt.Errorf("deploy: %s attestation: %w", m.Kind(), err)
		}
	case m.Machine() != nil:
		report, err := m.Machine().GenerateReport(nonce)
		if err != nil {
			return fmt.Errorf("deploy: %s SNP report: %w", m.Kind(), err)
		}
		if err := sev.VerifyReport(m.Machine().SigningKey(), report); err != nil {
			return fmt.Errorf("deploy: %s attestation: %w", m.Kind(), err)
		}
	}
	return nil
}

// RestartModule models a whole-module crash: the runtime (and enclave,
// under SGX) is destroyed, rebuilt from the retained configuration — which
// re-charges the paper's Fig. 7 load cost to ctx's account — re-attested,
// and, under SGX, its key store restored from sealed backups. The fault
// injector, when present, is repointed at the fresh enclave.
func (s *Slice) RestartModule(ctx context.Context, kind paka.ModuleKind) error {
	return s.RestartShardModule(ctx, 0, kind)
}

// RestartShardModule is RestartModule addressed at one replica.
func (s *Slice) RestartShardModule(ctx context.Context, shard int, kind paka.ModuleKind) error {
	if shard < 0 || shard >= len(s.Shards) {
		return fmt.Errorf("deploy: no shard %d", shard)
	}
	c := s.Shards[shard]
	m, ok := c.Modules[kind]
	if !ok {
		return fmt.Errorf("deploy: no %s module in shard %d", kind, shard)
	}
	if err := m.Restart(ctx); err != nil {
		return fmt.Errorf("deploy: restart %s shard %d: %w", kind, shard, err)
	}
	if s.Chaos != nil {
		s.Chaos.RegisterEnclave(m.ServiceName(), m.Enclave())
	}
	// The redeployed environment must re-prove itself before it is
	// trusted again (the paper's deployment-validation step).
	if err := s.verifyAttestation(m); err != nil {
		return err
	}
	if kind == paka.EUDM {
		s.attestMu.Lock()
		s.attested[m] = true
		s.attestMu.Unlock()
		if c.UDM != nil {
			// Vectors minted before the crash must never be served after
			// it: the fresh key store may have rebased sequence numbers.
			c.UDM.InvalidateAVPool()
		}
	}
	return nil
}

// ProvisionSubscriber installs a subscriber in the UDR and delivers the
// long-term key to the AKA execution environment (the eUDM enclave under
// SGX isolation, where it is shielded from introspection). For TEE-backed
// slices the environment's attestation evidence is verified before the
// first key is released.
func (s *Slice) ProvisionSubscriber(ctx context.Context, supi suci.SUPI, k, opc []byte) error {
	if err := supi.Validate(); err != nil {
		return err
	}
	imsi := supi.String()
	if err := s.provisioning.Provision(ctx, udr.Subscriber{
		SUPI:     imsi,
		K:        k,
		OPc:      opc,
		SQN:      []byte{0, 0, 0, 0, 0, 0},
		AMFField: []byte{0x80, 0x00}, // separation bit set for 5G AKA
	}); err != nil {
		return fmt.Errorf("deploy: UDR provisioning: %w", err)
	}
	// The long-term key is fanned out to EVERY replica's execution
	// environment (each attested once). Full key replication is what
	// makes topology rebalances loss-free: when a snapshot moves a SUPI
	// to a different shard, the new owner's eUDM already holds the key,
	// so no registration fails during ring movement.
	for _, shard := range s.Shards {
		if shard.MonoUDM != nil {
			shard.MonoUDM.ProvisionSubscriber(imsi, k)
			continue
		}
		if m, ok := shard.Modules[paka.EUDM]; ok {
			if err := s.attestEUDM(m); err != nil {
				return err
			}
			if err := m.ProvisionSubscriber(ctx, imsi, k); err != nil {
				return fmt.Errorf("deploy: eUDM provisioning (shard %d): %w", shard.Index, err)
			}
		}
	}
	return nil
}

// PrewarmAVPool fills the AV precomputation pools for the given SUPIs
// ahead of traffic, derived for this slice's serving network name. Call it
// after provisioning; each SUPI costs one UDR batch round trip and one
// enclave crossing, and its first AVPoolDepth authentications then hit the
// pool instead of paying a synchronous cold-start refill. Each SUPI is
// prewarmed only on its owning replica: the others would bank vectors
// nothing ever drains.
func (s *Slice) PrewarmAVPool(ctx context.Context, supis []string) error {
	snn := kdf.ServingNetworkName(s.Config.MCC, s.Config.MNC)
	perShard := make([][]string, len(s.Shards))
	for _, supi := range supis {
		idx := s.GNB.ShardOf(supi)
		perShard[idx] = append(perShard[idx], supi)
	}
	for i, shard := range s.Shards {
		if err := shard.UDM.PrewarmAVPool(ctx, perShard[i], snn); err != nil {
			return err
		}
	}
	return nil
}

// Stop tears the slice down, destroying any enclaves.
func (s *Slice) Stop() {
	for _, shard := range s.Shards {
		for _, m := range shard.Modules {
			m.Stop()
		}
	}
}

// StopNRF takes the NRF off the service bus mid-run. Because the NRF is
// a pure control-plane function — shard bindings are resolved once at
// construction and the gNB routes on its last-known-good snapshot —
// registrations must keep succeeding afterwards. Topology *changes* (SetRoutableReplicas) still
// work too: the builder pushes in-process, not over SBI. This models the
// paper's availability claim: shielding and routing survive discovery
// outages.
func (s *Slice) StopNRF() {
	s.Registry.Deregister(nrf.ServiceName)
}

// SetRoutableReplicas publishes a new topology snapshot that routes over
// only the first n shards. It is a pure prefix truncation — replica i in
// the snapshot is always Shards[i] — so the gNB's static AMF bindings
// stay index-aligned; shards outside the prefix keep running and their
// keys stay provisioned, so restoring n later is loss-free. Returns the
// push result (epoch plus ack/nack counts).
func (s *Slice) SetRoutableReplicas(n int) (topo.PushResult, error) {
	if n < 1 || n > len(s.Shards) {
		return topo.PushResult{}, fmt.Errorf("deploy: routable replicas %d out of range [1,%d]", n, len(s.Shards))
	}
	replicas := make([]topology.Replica, n)
	for i := 0; i < n; i++ {
		replicas[i] = topology.Replica{Index: i, Name: s.Shards[i].Name}
	}
	s.Topology.SetReplicas(replicas)
	return s.Topology.Publish(), nil
}

// AVPoolStats sums the AV-pool counters across every shard's UDM —
// the fleet-wide view. Per-replica counters are additive, so the sum
// never double counts.
func (s *Slice) AVPoolStats() udm.AVPoolStats {
	var out udm.AVPoolStats
	for _, st := range s.ShardAVPoolStats() {
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Refills += st.Refills
		out.Invalidated += st.Invalidated
		out.Prewarmed += st.Prewarmed
		out.Pooled += st.Pooled
	}
	return out
}

// ShardAVPoolStats snapshots each shard UDM's AV-pool counters in
// shard-index order.
func (s *Slice) ShardAVPoolStats() []udm.AVPoolStats {
	out := make([]udm.AVPoolStats, len(s.Shards))
	for i, shard := range s.Shards {
		out[i] = shard.UDM.AVPoolStats()
	}
	return out
}

// AdmissionStats sums the admission counters across every shard's
// controller — the fleet-wide view. Sources is summed, not deduplicated:
// shuffle-sharding gives each (gNB, PLMN) tenant buckets on only its own
// shards, so per-shard source sets are disjoint views of load.
func (s *Slice) AdmissionStats() admission.Stats {
	var out admission.Stats
	for _, st := range s.ShardAdmissionStats() {
		for i := range st.Admitted {
			out.Admitted[i] += st.Admitted[i]
			out.Dropped[i] += st.Dropped[i]
		}
		out.Sources += st.Sources
	}
	return out
}

// ShardAdmissionStats snapshots each shard's admission counters in
// shard-index order (zero value where admission is disabled).
func (s *Slice) ShardAdmissionStats() []admission.Stats {
	out := make([]admission.Stats, len(s.Shards))
	for i, shard := range s.Shards {
		if shard.Admission != nil {
			out[i] = shard.Admission.Stats()
		}
	}
	return out
}
