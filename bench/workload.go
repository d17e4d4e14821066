package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"

	"shield5g/internal/admission"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/deploy"
	"shield5g/internal/paka"
	"shield5g/internal/simclock"
	"shield5g/internal/ue"
)

// kind is the shape of a workload's load.
type kind int

const (
	// attach: every subscriber registers once with a fresh SUCI.
	attach kind = iota
	// reauth: an attached population re-registers round-robin by 5G-GUTI.
	reauth
	// storm: open-loop arrivals on the virtual axis (see storm.go).
	storm
)

// mode selects how the slice is deployed and how requests cross into the
// P-AKA modules; the zero value is the paper's deployment.
type mode struct {
	avPool     int  // UDM AV pool depth; 0 = no pool
	binarySBI  bool // negotiated binary SBI frames instead of JSON
	batch      int  // requests per keep-alive module connection; 0 = connection per request
	switchless bool // switchless ECALL rings
	replicas   int  // vertical core replicas; <= 1 = singleton
	overload   bool // OverloadProfile{Shed, Admission, Throttle}
}

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	kind kind
	mode mode
	// parallel runs one closed-loop worker per CPU instead of one.
	parallel bool
	// population is the number of subscribers provisioned at set-up; reauth
	// also attaches all of them there. For the storm it is the number of
	// arrivals of one rung, each with a device of its own.
	population int
	// prefix is the fixed number of registrations every count-type metric
	// (virtual time, allocations, heap, counters) is taken over, so those
	// metrics repeat exactly for a seed however long the window runs.
	prefix int
	// twin is the number of leading registrations repeated on a
	// Container-isolation slice for the shield (SGX-attributable) figures.
	twin int
}

const warmups = 64

var fastMode = mode{avPool: 8, binarySBI: true, batch: 8}

// workloads lists the six named workloads in report order. BENCHMARK.json
// carries the same names and reasons; TestBenchmarkJSON keeps them in step.
var workloads = []workload{
	{
		name: "attach_paper", kind: attach, population: 1 << 15, prefix: 1 << 13, twin: 1 << 12,
		why: "fresh SUCI attaches on the paper's deployment (JSON SBI, connection per request, no AV pool, classic ECALLs): the enclave boundary, per-request TLS and encoding/json do most of the work",
	},
	{
		name: "attach_fast", kind: attach, mode: fastMode, population: 1 << 15, prefix: 1 << 13, twin: 1 << 12,
		why: "same arrivals with AV pool 8, binary SBI and keep-alive batch 8: boundary and JSON do little, the pool is write-only (1 miss, 8 minted, 1 used), UDM-side X25519 dominates wall time",
	},
	{
		name: "reauth_fast", kind: reauth, mode: fastMode, population: 1 << 12, prefix: 1 << 16, twin: 1 << 15,
		why: "GUTI re-registrations of 4096 attached UEs: no SUCI and no X25519, the pool is read-mostly (7/8 hits), wall time is NAS + binary codec + KDF + allocation, undiluted by ECDH",
	},
	{
		name: "reauth_ring", kind: reauth, population: 1 << 12, prefix: 1 << 16, twin: 1 << 15,
		mode: mode{avPool: 8, binarySBI: true, batch: 8, switchless: true},
		why:  "reauth_fast through switchless rings: virtual cost falls while wall cost rises (goroutine hand-off), so a change that helps one clock at the other's expense shows",
	},
	{
		name: "attach_sharded", kind: attach, parallel: true, population: 1 << 16, prefix: 1 << 15, twin: 1 << 12,
		mode: mode{avPool: 8, binarySBI: true, batch: 8, replicas: 4},
		why:  "fresh attaches from one worker per CPU over 4 replicas: topology routing, shard.Map striping, the shared UDR and sync.Pools under parallel callers; lane imbalance shows",
	},
	{
		name: "storm_ladder", kind: storm, mode: mode{avPool: 8, overload: true}, population: 2000,
		why: "open-loop arrivals on the virtual axis at 0.5x to 10x the modelled bottleneck with the limiter armed: queue wait, admission buckets, client throttle and breakers do the work",
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func (w *workload) workers() int {
	if w.parallel {
		return runtime.NumCPU()
	}
	return 1
}

// sliceConfig is the deployment of mode m under the given isolation.
func (m mode) sliceConfig(seed uint64, iso paka.Isolation) deploy.SliceConfig {
	cfg := deploy.SliceConfig{
		Isolation:   iso,
		Seed:        seed,
		AVPoolDepth: m.avPool,
		BinarySBI:   m.binarySBI,
		Replicas:    m.replicas,
		Switchless:  m.switchless && iso == paka.SGX,
	}
	if m.overload {
		acfg := admission.DefaultConfig(nil)
		cfg.Overload = &deploy.OverloadProfile{Shed: true, Admission: &acfg, Throttle: true}
	}
	return cfg
}

// subscriber is one generated USIM.
type subscriber struct {
	supi suci.SUPI
	k    [16]byte
	opc  [16]byte
}

// Independent PCG streams of one --seed.
const (
	streamPopulation = 0x706f70 // "pop"
	streamEntropy    = 0x656e74 // "ent"
	streamStorm      = 0x73746f // "sto"
)

// newPopulation derives n subscribers from seed: MSINs are a seeded
// permutation of a seeded block (so shard routing and order change with
// the seed), keys are seeded random bytes.
func newPopulation(seed uint64, n int) []subscriber {
	rng := rand.New(rand.NewPCG(seed, streamPopulation))
	base := rng.Uint64N(9_000_000_000 - uint64(n))
	subs := make([]subscriber, n)
	for i, p := range rng.Perm(n) {
		s := &subs[i]
		s.supi = suci.SUPI{MCC: "001", MNC: "01", MSIN: fmt.Sprintf("%010d", base+uint64(p))}
		for j := 0; j < 16; j += 8 {
			binary.LittleEndian.PutUint64(s.k[j:], rng.Uint64())
			binary.LittleEndian.PutUint64(s.opc[j:], rng.Uint64())
		}
	}
	return subs
}

// seededEntropy is the UE side's randomness (SUCI ephemeral keys): a
// seeded PCG behind a mutex, so load generation never blocks on, or is
// timed by, the kernel's generator. The core keeps crypto/rand.
type seededEntropy struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newSeededEntropy(seed uint64) *seededEntropy {
	return &seededEntropy{rng: rand.New(rand.NewPCG(seed, streamEntropy))}
}

func (e *seededEntropy) Read(p []byte) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := 0; i < len(p); i += 8 {
		v := e.rng.Uint64()
		for j := i; j < len(p) && j < i+8; j++ {
			p[j] = byte(v)
			v >>= 8
		}
	}
	return len(p), nil
}

// rig is one deployed slice with its provisioned population and the
// closed-loop lanes that drive it.
type rig struct {
	w     *workload
	slice *deploy.Slice
	snn   string
	ues   []*ue.UE // population followed by the warm-up devices
	lanes []*lane

	// Set-up parts, wall nanoseconds.
	deployNs, provisionNs, attachNs, warmNs int64
}

func (r *rig) setupNs() int64 { return r.deployNs + r.provisionNs + r.attachNs + r.warmNs }

// newRig deploys the workload's slice, provisions population+warmups
// subscribers, attaches the population (reauth only) and runs the warm-up
// registrations. Everything it does is a function of (w, seed, iso), so two
// rigs built from the same arguments replay identically.
func newRig(ctx context.Context, w *workload, seed uint64, iso paka.Isolation) (*rig, error) {
	t0 := now()
	slice, err := deploy.NewSlice(ctx, w.mode.sliceConfig(seed, iso))
	if err != nil {
		return nil, fmt.Errorf("deploy %s: %w", w.name, err)
	}
	r := &rig{
		w:     w,
		slice: slice,
		snn:   slice.AMF.ServingNetworkName(),
	}
	t1 := now()
	r.deployNs = t1 - t0

	if err := r.provision(ctx, newPopulation(seed, w.population+warmups), newSeededEntropy(seed)); err != nil {
		slice.Stop()
		return nil, err
	}
	t2 := now()
	r.provisionNs = t2 - t1

	r.lanes = make([]*lane, w.workers())
	for i := range r.lanes {
		r.lanes[i] = newLane(r, i)
	}
	l0 := r.lanes[0]
	if w.kind == reauth {
		// Attach the population, then re-register device i another
		// i mod depth times. An attach banks depth-1 vectors for every
		// device alike, so without this all devices would run out in the
		// same round and the window would alternate between seven rounds
		// of pool hits and one of refills; with it the fill levels are
		// spread evenly and any stretch of the window holds the steady mix.
		for i := 0; i < w.population; i++ {
			for k := 0; k <= i%max(w.mode.avPool, 1); k++ {
				if err := l0.mustRegister(i); err != nil {
					slice.Stop()
					return nil, fmt.Errorf("attach population: %w", err)
				}
			}
		}
	}
	t3 := now()
	r.attachNs = t3 - t2

	// Warm-up: throw-away devices take the workload's own path once, so
	// first-contact handshakes, codec negotiation and pool construction
	// happen before the window.
	for i := w.population; i < w.population+warmups; i++ {
		err := l0.mustRegister(i)
		if err == nil && w.kind == reauth {
			err = l0.mustRegister(i)
		}
		if err != nil {
			slice.Stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	r.warmNs = now() - t3
	return r, nil
}

// provision installs the subscribers in the core and builds their devices.
func (r *rig) provision(ctx context.Context, subs []subscriber, entropy *seededEntropy) error {
	r.ues = make([]*ue.UE, len(subs))
	for i := range subs {
		s := &subs[i]
		if err := r.slice.ProvisionSubscriber(ctx, s.supi, s.k[:], s.opc[:]); err != nil {
			return fmt.Errorf("provision %s: %w", s.supi, err)
		}
		dev, err := ue.New(ue.Config{
			SUPI:                 s.supi,
			K:                    s.k[:],
			OPc:                  s.opc[:],
			HomeNetworkPublicKey: r.slice.HomeNetworkKey.PublicKey(),
			HomeNetworkKeyID:     r.slice.HomeNetworkKey.ID,
			Env:                  r.slice.Env,
			Entropy:              entropy,
		})
		if err != nil {
			return fmt.Errorf("device %s: %w", s.supi, err)
		}
		r.ues[i] = dev
	}
	return nil
}

// laneContext decorates ctx the way gnb's parallel mass driver does for
// worker id: its own request account, jitter stream and module connection.
func (r *rig) laneContext(ctx context.Context, id int, acct *simclock.Account) context.Context {
	ctx = simclock.WithAccount(ctx, acct)
	ctx = simclock.WithJitter(ctx, r.slice.Env.Jitter.Stream(uint64(id)+1))
	if r.w.mode.batch > 0 {
		ctx = paka.WithConnection(ctx, uint64(id)+1, r.w.mode.batch)
	}
	if r.w.mode.switchless {
		ctx = paka.WithSwitchless(ctx)
	}
	return ctx
}
