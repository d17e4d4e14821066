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
	"sync/atomic"
	"time"

	"shield5g/internal/admission"
	"shield5g/internal/chaos"
	"shield5g/internal/costmodel"
	"shield5g/internal/crypto/kdf"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/gnb"
	"shield5g/internal/hmee/sev"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/lockrank"
	"shield5g/internal/nf/amf"
	"shield5g/internal/nf/ausf"
	"shield5g/internal/nf/nrf"
	"shield5g/internal/nf/smf"
	"shield5g/internal/nf/udm"
	"shield5g/internal/nf/udr"
	"shield5g/internal/nf/upf"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/sbi/codec"
	"shield5g/internal/simclock"
	"shield5g/internal/topology"
	"shield5g/internal/ue"
)

// SliceConfig describes one network slice deployment.
type SliceConfig struct {
	// Isolation selects how the extracted AKA functions run: Container
	// (unprotected), SGX (enclave-shielded) or SEV (a confidential VM).
	// Zero means SGX.
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
	// (sbi.Client.EnableBinary): from its first request to a peer on, a
	// client sends every request as a zero-copy length-prefixed frame, and
	// the server answers in kind. Off keeps the seed-identical JSON wire
	// format everywhere.
	BinarySBI bool
	// Overload enables the TS 29.500-style overload-control layer: load
	// meters on the authentication-chain servers, optional bounded-queue
	// shedding, the AMF's priority admission controller, and client-side
	// proportional throttling. nil leaves the slice seed-identical. The
	// machinery starts disarmed — SetOverloadArmed opens the storm window.
	Overload *OverloadProfile
	// Replicas is the number of shards: vertical replicas of the
	// authentication chain (AMF -> AUSF -> UDM -> P-AKA modules each)
	// behind SUPI-affinity rendezvous routing at the gNB. NewSlice and
	// SetRoutableReplicas install the versioned topology snapshots through
	// Slice.route. Values below 1 mean 1. NRF, UDR, SMF and UPF stay
	// shared across replicas.
	Replicas int
	// Switchless deploys every SGX module with the switchless ECALL
	// submission ring (paka.Config.Switchless): a dedicated in-enclave
	// dispatcher thread serves shared-memory call submissions, so
	// steady-state requests cross with zero EENTER/EEXIT. The crossing is
	// the deployment's: every module request of the slice rides the ring,
	// none is marked. Off keeps the slice bit-identical to the
	// classic-ECALL deployment. SGX only.
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

// Slice is a running network slice.
type Slice struct {
	Config SliceConfig
	Env    *costmodel.Env
	// Platform is the SGX host of an SGX slice, SEVHost the SEV-SNP host
	// of an SEV slice; each is nil under the other isolations.
	Platform *sgx.Platform
	SEVHost  *sev.Platform
	Registry *sbi.Registry

	NRF *nrf.NRF
	UDR *udr.UDR
	SMF *smf.SMF
	UPF *upf.UPF
	GNB *gnb.GNB

	// AMF is shard 0's AMF, for the serving network name every replica
	// derives alike; per-replica AMF state is in Shards.
	AMF *amf.AMF

	// Modules is shard 0's P-AKA module set. Every replica runs the same
	// operator-signed images, so it stands for any replica's load time,
	// TCB or manifest; per-replica counters live in Shards. Populated once
	// inside NewSlice before the Slice is published and read-only
	// afterwards; attestMu guards attested, not this map.
	Modules map[paka.ModuleKind]*paka.Module

	// HomeNetworkKey conceals/de-conceals SUPIs for this home network.
	HomeNetworkKey *suci.HomeNetworkKey

	// Chaos is the slice's fault injector (nil when SliceConfig.Chaos was
	// nil). Crash faults on the P-AKA module services restart the module
	// through RestartShardModule.
	Chaos *chaos.Injector

	// Shards lists the vertical core replicas in shard-index order, at
	// least one. Fleet-wide figures are the Slice's summing methods
	// (AVPoolStats, AdmissionStats, ...), not any one shard's.
	Shards []*CoreShard

	// Router is the gNB's routing view: the last snapshot route
	// installed. routeMu single-files route, so each snapshot's epoch is
	// exactly one past the one it replaces.
	Router  *topology.Router
	routeMu sync.Mutex

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
	resilMu    lockrank.Mutex
	resilients []*sbi.ResilientClient

	// metered tracks the servers carrying load meters, for arming.
	metered []*sbi.Server

	// root is the platform key every module's evidence must be signed by
	// (the SGX quoting key, the SEV PSP key; nil on a container slice) and
	// reference the identity each kind must report, derived in NewSlice
	// from the images the slice builds. Both are set before any module is
	// deployed and never change.
	root      ed25519.PublicKey
	reference map[paka.ModuleKind][32]byte

	attestMu lockrank.Mutex
	attested map[*paka.Module]bool

	// provisioned and maintained total what the slice's own verbs booked:
	// ProvisionSubscriber, and NewSlice, PrewarmAVPool and
	// RestartShardModule.
	provisioned, maintained atomic.Uint64
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

	// Modules holds the shard's P-AKA modules, fixed at construction.
	Modules map[paka.ModuleKind]*paka.Module

	// Remote clients expose the VNF-side response-time recorders.
	RemoteUDM  *paka.Remote
	RemoteAUSF *paka.Remote
	RemoteAMF  *paka.Remote

	// Admission is the shard AMF's priority admission controller (nil
	// unless overload admission is configured). Each replica keeps its own
	// buckets, so a tenant's storm drains a replica's buckets only by the
	// share of its SUPIs that replica owns.
	Admission *admission.Controller

	// UDMService/AUSFService are the shard's SBI service names, for
	// overload metering and diagnostics.
	UDMService  string
	AUSFService string
}

// newSliceBase is NewSlice's prologue: defaults, the cost environment and
// TEE platform, the (disarmed) fault injector, the resilience profile, the
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
	s := &Slice{
		Config:    cfg,
		Env:       env,
		Registry:  sbi.NewRegistry(),
		reference: make(map[paka.ModuleKind][32]byte),
		attested:  make(map[*paka.Module]bool),
		resilMu:   lockrank.Mutex{Rank: lockrank.SliceResilience},
		attestMu:  lockrank.Mutex{Rank: lockrank.SliceAttestation},
	}
	var err error
	switch cfg.Isolation {
	case paka.SGX:
		if s.Platform, err = sgx.NewPlatform(sgx.PlatformConfig{Seed: cfg.Seed}); err != nil {
			return nil, fmt.Errorf("deploy: SGX platform: %w", err)
		}
		s.root = s.Platform.QuotingPublicKey()
	case paka.SEV:
		s.SEVHost = sev.NewPlatform()
		s.root = s.SEVHost.PublicKey()
	}
	if cfg.Chaos != nil {
		s.Chaos = chaos.NewInjector(env, *cfg.Chaos)
		// Deployment itself (NRF registration, discovery, module build)
		// runs fault-free; armChaos arms the injector once the slice is up.
		s.Chaos.SetArmed(false)
	}
	s.resilience = cfg.Chaos != nil || throttles(cfg)

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
// plane publishing epoch 1, then the gNB. The deployment — the modules'
// load cost (Fig. 7 under SGX) included — is booked as maintenance.
func NewSlice(ctx context.Context, cfg SliceConfig) (s *Slice, err error) {
	if s, err = newSliceBase(cfg); err == nil {
		err = s.book(ctx, &s.maintained, s.deploy)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Booked reports the virtual time the slice's own verbs have booked:
// provisioning subscribers, and maintenance — deploying, prewarming AV
// pools and restarting modules. A verb run on a caller's account books
// there too.
func (s *Slice) Booked() (provisioning, maintenance time.Duration) {
	return s.Env.Model.Duration(simclock.Cycles(s.provisioned.Load())), s.Env.Model.Duration(simclock.Cycles(s.maintained.Load()))
}

// Unbooked reports the cycles the slice's env and, under SGX, its
// platform's counted as charged to no account (costmodel.Env.Unbooked).
// Every procedure books its own, so it reads 0 until the slice stops.
func (s *Slice) Unbooked() simclock.Cycles {
	if s.Platform == nil {
		return s.Env.Unbooked()
	}
	return s.Env.Unbooked() + s.Platform.Env().Unbooked()
}

// book runs one of the slice's verbs through simclock.Book and adds what
// it charged to total.
func (s *Slice) book(ctx context.Context, total *atomic.Uint64, verb func(context.Context) error) error {
	n, _, err := simclock.Book(ctx, verb)
	total.Add(uint64(n))
	return err
}

// deploy is NewSlice past the base: everything that charges.
func (s *Slice) deploy(ctx context.Context) (err error) {
	cfg, env := s.Config, s.Env

	// The rest of the shared control and user plane — one of each across
	// all shards, like the base's NRF and UDR.
	if s.UPF, err = upf.New(env, s.Registry); err != nil {
		return fmt.Errorf("deploy: UPF: %w", err)
	}
	smfInvoker := s.buildInvoker(smf.ServiceName)
	if s.SMF, err = smf.New(ctx, smf.Config{Env: env, Registry: s.Registry, Invoker: smfInvoker}); err != nil {
		return fmt.Errorf("deploy: SMF: %w", err)
	}

	// One GSC signing key for all module images of this operator.
	_, signKey, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return fmt.Errorf("deploy: GSC sign key: %w", err)
	}
	// The reference identity of every module kind, from the recipe the
	// slice is about to deploy: what attestation checks evidence against.
	for _, kind := range paka.Kinds() {
		if s.reference[kind], err = paka.Reference(s.moduleConfig(kind, 0, signKey)); err != nil {
			return fmt.Errorf("deploy: %s reference: %w", kind, err)
		}
	}

	amfs := make([]*amf.AMF, cfg.Replicas)
	replicas := make([]topology.Replica, cfg.Replicas)
	for r := range amfs {
		shard, err := s.buildShard(ctx, r, signKey)
		if err != nil {
			return err
		}
		s.Shards = append(s.Shards, shard)
		amfs[r] = shard.AMF
		replicas[r] = topology.Replica{Index: r, Name: shard.Name}
	}

	s.AMF, s.Modules = s.Shards[0].AMF, s.Shards[0].Modules

	// Epoch 1 routes over every replica.
	s.Router = topology.NewRouter()
	if _, err := s.route(replicas); err != nil {
		return err
	}

	if s.GNB, err = gnb.New(gnb.Config{
		Env: env, AMFs: amfs, Router: s.Router, UPF: s.UPF,
		MCC: cfg.MCC, MNC: cfg.MNC, Radio: cfg.Radio, Chaos: s.Chaos,
	}); err != nil {
		return fmt.Errorf("deploy: gNB: %w", err)
	}

	s.armChaos()
	s.wireOverload()
	return nil
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

// reprovisionHook is what shard's UDM gets from the slice: it pushes a
// long-term key, fetched from the UDR, into the shard's eUDM when that runs
// in a guest (a container or a confidential VM) whose key store misses it —
// a crash-restart emptied the store, or a rebalance routed the SUPI to a
// replica it was never provisioned to. The eUDM is resolved and attested
// per call, like any eUDM before its first K: a replica that never owned a
// SUPI may never have been attested. An SGX eUDM gets none: its enclave
// restores K from the platform's sealed file, so K never crosses the SBI to
// reach it.
func (s *Slice) reprovisionHook(shard *CoreShard) func(context.Context, codec.SUPI, []byte) error {
	if s.Config.Isolation == paka.SGX {
		return nil
	}
	return func(ctx context.Context, supi codec.SUPI, k []byte) error {
		m := shard.Modules[paka.EUDM]
		if err := s.attestEUDM(m); err != nil {
			return err
		}
		return m.ProvisionSubscriber(ctx, supi, k)
	}
}

// armChaos points the fault injector at every shard's modules and arms it.
func (s *Slice) armChaos() {
	if s.Chaos == nil {
		return
	}
	for _, shard := range s.Shards {
		for kind, m := range shard.Modules {
			s.Chaos.RegisterEnclave(m.ServiceName(), m.Enclave)
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
	attach := func(service string, cost simclock.Cycles, queue int) {
		srv, ok := s.Registry.Lookup(service)
		if !ok {
			return
		}
		srv.EnableOverload(s.Env, sbi.OverloadConfig{
			ServiceCycles: cost,
			MaxQueue:      maxQueue(queue),
		})
		s.metered = append(s.metered, srv)
	}
	moduleCost := map[paka.ModuleKind]simclock.Cycles{
		paka.EUDM:  eudmServiceCycles,
		paka.EAUSF: eausfServiceCycles,
		paka.EAMF:  eamfServiceCycles,
	}
	// Every replica's servers meter independently — per-replica OCI state
	// is what lets one hot shard advertise overload while its siblings
	// keep accepting. Each meter's advert is its own queue and nothing
	// else.
	for _, shard := range s.Shards {
		attach(shard.UDMService, udmServiceCycles, 12)
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
		SEVHost:   s.SEVHost,
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

// verifyAttestation checks a module's hardware-rooted evidence over a
// fresh nonce against the slice's platform key and the reference identity
// of the module's kind; on a container slice there is nothing to attest.
func (s *Slice) verifyAttestation(m *paka.Module) error {
	if s.root == nil {
		return nil
	}
	var nonce [64]byte
	rand.Read(nonce[:]) // never fails
	ev, err := m.Evidence(nonce)
	if err != nil {
		return fmt.Errorf("deploy: %s evidence: %w", m.Kind(), err)
	}
	if err := ev.Verify(s.root, s.reference[m.Kind()], nonce); err != nil {
		return fmt.Errorf("deploy: %s attestation: %w", m.Kind(), err)
	}
	return nil
}

// Reference is the identity the slice's modules of kind must attest to,
// derived from the image the slice built; zero on a container slice.
func (s *Slice) Reference(kind paka.ModuleKind) [32]byte { return s.reference[kind] }

// RestartShardModule models a whole-module crash of replica shard's kind
// module: the runtime (and enclave, under SGX) is destroyed, rebuilt from
// the retained configuration — which re-pays the paper's Fig. 7 load cost,
// booked as maintenance — and re-attested. Its key store comes back empty
// and refills per SUPI on first use: from the platform's sealed files under
// SGX, through the UDM's re-provisioning path in a guest. The fault
// injector resolves the module's enclave per fault, so it finds the fresh
// one unprompted.
func (s *Slice) RestartShardModule(ctx context.Context, shard int, kind paka.ModuleKind) error {
	if shard < 0 || shard >= len(s.Shards) {
		return fmt.Errorf("deploy: no shard %d", shard)
	}
	c := s.Shards[shard]
	m, ok := c.Modules[kind]
	if !ok {
		return fmt.Errorf("deploy: no %s module in shard %d", kind, shard)
	}
	if err := s.book(ctx, &s.maintained, m.Restart); err != nil {
		return fmt.Errorf("deploy: restart %s shard %d: %w", kind, shard, err)
	}
	// The redeployed environment must re-prove itself before it is
	// trusted again (the paper's deployment-validation step).
	if err := s.verifyAttestation(m); err != nil {
		return err
	}
	if kind == paka.EUDM && c.UDM != nil {
		// Vectors minted before the crash must never be served after it:
		// the fresh key store may have rebased sequence numbers.
		c.UDM.InvalidateAVPool()
	}
	return nil
}

// initialSQN and amfField5G are what every subscriber is provisioned with:
// SQN 0, and the AMF field 0x8000, whose separation bit 5G AKA needs. They
// are shared and read only; the provisioning post only encodes them.
var (
	initialSQN = []byte{0, 0, 0, 0, 0, 0}
	amfField5G = []byte{0x80, 0x00}
)

// ProvisionSubscriber installs a subscriber in the UDR and delivers the
// long-term key to the AKA execution environment of the replica that owns
// the SUPI under the current topology snapshot (the eUDM enclave under SGX
// isolation, where it is shielded from introspection). For TEE-backed
// slices the owner's attestation evidence is verified before its first
// key is released. k must be 16 bytes.
//
// What the slice then holds per subscriber: the UDR's flat record, once;
// under SGX one sealed file of K on the platform, once; and K in the
// owner's runtime key store. Any other replica the SUPI is later routed to
// gets K on its first miss — an SGX enclave by opening the sealed file, a
// guest through the UDM's re-provisioning path — so a rebalance costs no
// registration. Re-provisioning a SUPI the UDR already held evicts it from
// every other replica's key store, so none of them keeps the old K; a
// first provisioning reaches the owner alone. It is booked as
// provisioning.
func (s *Slice) ProvisionSubscriber(ctx context.Context, supi suci.SUPI, k, opc []byte) error {
	return s.book(ctx, &s.provisioned, func(ctx context.Context) error {
		id, err := supi.Value()
		if err != nil {
			return err
		}
		held := s.UDR.Holds(id)
		if err := s.provisioning.Provision(ctx, udr.Subscriber{
			SUPI:     id,
			K:        k,
			OPc:      opc,
			SQN:      initialSQN,
			AMFField: amfField5G,
		}); err != nil {
			return fmt.Errorf("deploy: UDR provisioning: %w", err)
		}
		owner := s.GNB.ShardOfSUPI(id)
		m := s.Shards[owner].Modules[paka.EUDM]
		if err := s.attestEUDM(m); err != nil {
			return err
		}
		if err := m.ProvisionSubscriber(ctx, id, k); err != nil {
			return fmt.Errorf("deploy: eUDM provisioning (shard %d): %w", owner, err)
		}
		if !held {
			return nil
		}
		for _, shard := range s.Shards {
			if shard.Index == owner {
				continue
			}
			if err := shard.Modules[paka.EUDM].EvictSubscriber(ctx, id); err != nil {
				return fmt.Errorf("deploy: eUDM eviction (shard %d): %w", shard.Index, err)
			}
		}
		return nil
	})
}

// ProvisionDevice provisions a subscriber (see ProvisionSubscriber) and
// returns a UE device holding its USIM credentials and this slice's
// home-network key, charging the slice's env. A nil profile makes a
// simulator UE; a COTSProfile gives the device a commercial handset's
// behaviour.
func (s *Slice) ProvisionDevice(ctx context.Context, supi suci.SUPI, k, opc []byte, profile *ue.COTSProfile) (*ue.UE, error) {
	if err := s.ProvisionSubscriber(ctx, supi, k, opc); err != nil {
		return nil, err
	}
	return ue.New(ue.Config{
		SUPI:                 supi,
		K:                    k,
		OPc:                  opc,
		HomeNetworkPublicKey: s.HomeNetworkKey.PublicKey(),
		HomeNetworkKeyID:     s.HomeNetworkKey.ID,
		Env:                  s.Env,
		Profile:              profile,
	})
}

// PrewarmAVPool fills the AV precomputation pools for the given SUPIs
// ahead of traffic, derived for this slice's serving network name. Call it
// after provisioning; each SUPI costs one UDR batch round trip and one
// enclave crossing, and its first AVPoolDepth authentications then hit the
// pool instead of paying a synchronous cold-start refill. Each SUPI is
// prewarmed only on its owning replica: the others would bank vectors
// nothing ever drains. It is booked as maintenance.
func (s *Slice) PrewarmAVPool(ctx context.Context, supis []string) error {
	snn := kdf.ServingNetworkName(s.Config.MCC, s.Config.MNC)
	perShard := make([][]string, len(s.Shards))
	for _, supi := range supis {
		idx := s.GNB.ShardOf(supi)
		perShard[idx] = append(perShard[idx], supi)
	}
	return s.book(ctx, &s.maintained, func(ctx context.Context) error {
		for i, shard := range s.Shards {
			if err := shard.UDM.PrewarmAVPool(ctx, perShard[i], snn); err != nil {
				return err
			}
		}
		return nil
	})
}

// Stop tears the slice down, destroying any enclaves. The teardown — under
// SGX each resident thread's final EEXIT — is booked as maintenance.
func (s *Slice) Stop() {
	_ = s.book(context.Background(), &s.maintained, func(ctx context.Context) error {
		for _, shard := range s.Shards {
			for _, m := range shard.Modules {
				m.Stop(ctx)
			}
		}
		return nil
	})
}

// SetRoutableReplicas installs a new topology snapshot that routes over
// only the first n shards. It is a pure prefix truncation — replica i in
// the snapshot is always Shards[i] — so the gNB's static AMF bindings
// stay index-aligned; shards outside the prefix keep running and keep the
// keys they hold, so restoring n later is loss-free. A SUPI the snapshot
// moves finds its key missing on the new owner's first contact and
// restores it there (see ProvisionSubscriber). Returns the installed
// epoch.
func (s *Slice) SetRoutableReplicas(n int) (uint64, error) {
	if n < 1 || n > len(s.Shards) {
		return 0, fmt.Errorf("deploy: routable replicas %d out of range [1,%d]", n, len(s.Shards))
	}
	replicas := make([]topology.Replica, n)
	for i := 0; i < n; i++ {
		replicas[i] = topology.Replica{Index: i, Name: s.Shards[i].Name}
	}
	return s.route(replicas)
}

// route seals replicas into the snapshot one epoch past the Router's and
// installs it, returning that epoch.
func (s *Slice) route(replicas []topology.Replica) (uint64, error) {
	s.routeMu.Lock()
	defer s.routeMu.Unlock()
	snap := &topology.Snapshot{Epoch: s.Router.Epoch() + 1, Replicas: replicas}
	snap.Seal()
	if err := s.Router.Apply(snap); err != nil {
		return 0, fmt.Errorf("deploy: %w", err)
	}
	return snap.Epoch, nil
}

// AVPoolStats sums the AV-pool counters across every shard's UDM —
// the fleet-wide view. Per-replica counters are additive, so the sum
// never double counts.
func (s *Slice) AVPoolStats() udm.AVPoolStats {
	var out udm.AVPoolStats
	for _, shard := range s.Shards {
		st := shard.UDM.AVPoolStats()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Refills += st.Refills
		out.Invalidated += st.Invalidated
		out.Prewarmed += st.Prewarmed
		out.Pooled += st.Pooled
	}
	return out
}

// AdmissionStats sums the admission counters across every shard's
// controller — the fleet-wide view. Sources is summed, not deduplicated:
// one (gNB, PLMN) source holds buckets on every replica its SUPIs route
// to, and counts once on each.
func (s *Slice) AdmissionStats() admission.Stats {
	var out admission.Stats
	for _, shard := range s.Shards {
		if shard.Admission == nil {
			continue
		}
		st := shard.Admission.Stats()
		for i := range st.Admitted {
			out.Admitted[i] += st.Admitted[i]
			out.Dropped[i] += st.Dropped[i]
		}
		out.Sources += st.Sources
	}
	return out
}
