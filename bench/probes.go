package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"shield5g/internal/admission"
	"shield5g/internal/crypto/kdf"
	"shield5g/internal/crypto/milenage"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/nas"
	"shield5g/internal/nf/ausf"
	"shield5g/internal/nf/udm"
	"shield5g/internal/nf/udr"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/shard"
	"shield5g/internal/simclock"
	"shield5g/internal/topology"
	"shield5g/internal/ue"
)

// A probe is a micro-loop that calls one layer's exported functions
// directly, after the window and on the same slice, with inputs taken from
// the workload. It reports wall ns/op (the fastest of five batches, for the
// reason quiet() gives), allocations/op and, where the call charges cycles,
// virtual cycles/op. Probe figures show what a layer costs in isolation;
// they are not parts of the end-to-end figures and need not add up to them.

type probeOut struct {
	ns     float64
	allocs float64
	cycles float64
}

const probeBatches = 5

// probe calls fn warm times untimed, then probeBatches batches of per calls.
// acct is the account fn's context charges; it may be nil.
func probe(acct *simclock.Account, warm, per int, fn func(i int) error) (probeOut, error) {
	if acct == nil {
		acct = &simclock.Account{}
	}
	for i := 0; i < warm; i++ {
		if err := fn(i); err != nil {
			return probeOut{}, err
		}
	}
	out := probeOut{ns: math.Inf(1)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := acct.Total()
	for b := 0; b < probeBatches; b++ {
		t0 := now()
		for i := 0; i < per; i++ {
			if err := fn(warm + b*per + i); err != nil {
				return probeOut{}, err
			}
		}
		out.ns = math.Min(out.ns, float64(now()-t0)/float64(per))
	}
	runtime.ReadMemStats(&m1)
	calls := float64(probeBatches * per)
	out.allocs = float64(m1.Mallocs-m0.Mallocs) / calls
	out.cycles = float64(acct.Total()-c0) / calls
	return out, nil
}

// prober holds the inputs the probes share.
type prober struct {
	r    *rig
	ctx  context.Context // a lane-like context of its own
	acct simclock.Account
	inv  *sbi.Client // a client on the slice's registry, codec as the slice's

	supis   []string     // provisioned subscribers, population order
	fresh   []*suci.SUCI // concealed identities of devices that never attached
	sub     subscriber   // a subscriber of our own, provisioned nowhere
	entropy *seededEntropy
	uplink  []byte // the initial registration request of sub's device
}

// probeLane keeps the probes' jitter stream and module connection apart
// from every worker's.
const probeLane = 1 << 20

func newProber(ctx context.Context, r *rig) (*prober, error) {
	p := &prober{r: r, sub: newPopulation(0, 1)[0], entropy: newSeededEntropy(0)}
	p.ctx = r.laneContext(ctx, probeLane, &p.acct)
	p.inv = sbi.NewClient("bench-probe", r.slice.Env, r.slice.Registry)
	if r.w.mode.binarySBI {
		p.inv.EnableBinary()
	}
	for _, dev := range r.ues[:r.w.population] {
		p.supis = append(p.supis, dev.SUPIString())
	}
	// Devices an attach window never reached give SUCIs whose subscribers
	// have no banked vectors, like every attach the window made; each NF
	// probe gets its own, so none sees the vectors another one banked.
	hn := r.slice.HomeNetworkKey
	for i := r.w.population - 1; i >= 0 && r.w.kind == attach && len(p.fresh) < 2*probeIdentities; i-- {
		if _, held := r.ues[i].GUTI(); held {
			break
		}
		sc, err := suci.Conceal(p.entropy, r.ues[i].SUPI(), "0000", hn.PublicKey(), hn.ID)
		if err != nil {
			return nil, err
		}
		p.fresh = append(p.fresh, sc)
	}

	// The NAS probes work on the initial uplink of a device of our own.
	dev, err := ue.New(ue.Config{
		SUPI: p.sub.supi, K: p.sub.k[:], OPc: p.sub.opc[:],
		HomeNetworkPublicKey: hn.PublicKey(), HomeNetworkKeyID: hn.ID,
		Env: r.slice.Env, Entropy: p.entropy,
	})
	if err != nil {
		return nil, err
	}
	if p.uplink, err = dev.BuildRegistrationRequest(p.ctx, r.snn); err != nil {
		return nil, err
	}
	return p, nil
}

// probeIdentities is the number of distinct identities one NF probe uses.
const probeIdentities = 256

// identity fills the i'th request of NF probe k with an identity: a fresh
// SUCI on attach workloads (de-concealment and a pool miss, as in the
// window), a known SUPI round-robin otherwise (what a GUTI re-registration
// resolves to). It falls back to SUPIs where the window spent the devices.
func (p *prober) identity(k, i int) (*suci.SUCI, string) {
	if len(p.fresh) == 2*probeIdentities {
		return p.fresh[k*probeIdentities+i%probeIdentities], ""
	}
	return nil, p.supis[i%len(p.supis)]
}

func us(ns float64) float64 { return ns / 1e3 }

// run executes every probe and stores its figures under the metric names.
func (p *prober) run(v values) error {
	r := p.r
	slice := r.slice
	env := slice.Env
	freq := float64(env.Clock.FrequencyHz())
	virtUs := func(c float64) float64 { return c / freq * 1e6 }
	virtMs := func(c float64) float64 { return c / freq * 1e3 }
	shard0 := slice.Shards[0]

	// gnb: one routing decision.
	out, err := probe(nil, 100, 20000, func(i int) error {
		slice.GNB.ShardOf(p.supis[i%len(p.supis)])
		return nil
	})
	if err != nil {
		return err
	}
	v["gnb.route_wall_ns_per_op"] = out.ns

	// nas: the plain codec on the captured registration request, and the
	// security context on the smallest protected message.
	msg, err := nas.Decode(p.uplink)
	if err != nil {
		return err
	}
	var nasAllocs float64
	if out, err = probe(nil, 100, 4000, func(int) error { _, err := nas.Encode(msg); return err }); err != nil {
		return err
	}
	v["nas.encode_wall_ns_per_op"], nasAllocs = out.ns, nasAllocs+out.allocs
	if out, err = probe(nil, 100, 4000, func(int) error { _, err := nas.Decode(p.uplink); return err }); err != nil {
		return err
	}
	v["nas.decode_wall_ns_per_op"], nasAllocs = out.ns, nasAllocs+out.allocs
	kamf := make([]byte, kdf.KeyLen256)
	sender, err := nas.NewSecurityContext(kamf)
	if err != nil {
		return err
	}
	receiver, err := nas.NewSecurityContext(kamf)
	if err != nil {
		return err
	}
	const protected = 100 + probeBatches*4000
	pdus := make([][]byte, 0, protected)
	if out, err = probe(nil, 100, 4000, func(int) error {
		pdu, err := sender.Protect(&nas.SecurityModeComplete{}, true)
		pdus = append(pdus, pdu)
		return err
	}); err != nil {
		return err
	}
	v["nas.protect_wall_ns_per_op"], nasAllocs = out.ns, nasAllocs+out.allocs
	if out, err = probe(nil, 100, 4000, func(i int) error { _, err := receiver.Unprotect(pdus[i], true); return err }); err != nil {
		return err
	}
	v["nas.unprotect_wall_ns_per_op"], nasAllocs = out.ns, nasAllocs+out.allocs
	v["nas.allocs_per_op"] = nasAllocs / 4

	// ausf, udm, udr: each NF's client over the slice's registry; the
	// figures are subtree costs (the NF and everything below it).
	ausfClient := ausf.NewClientFor(p.inv, shard0.AUSFService)
	if out, err = probe(&p.acct, 4, 40, func(i int) error {
		req := &ausf.AuthenticateRequest{ServingNetworkName: r.snn}
		req.SUCI, req.SUPI = p.identity(0, i)
		_, err := ausfClient.Authenticate(p.ctx, req)
		return err
	}); err != nil {
		return fmt.Errorf("ausf probe: %w", err)
	}
	v["ausf.authenticate_subtree_wall_us_per_op"] = us(out.ns)
	v["ausf.authenticate_subtree_virtual_ms_per_op"] = virtMs(out.cycles)

	udmClient := udm.NewClientFor(p.inv, shard0.UDMService)
	if out, err = probe(&p.acct, 4, 40, func(i int) error {
		req := &udm.GenerateAuthDataRequest{ServingNetworkName: r.snn}
		req.SUCI, req.SUPI = p.identity(1, i)
		_, err := udmClient.GenerateAuthData(p.ctx, req)
		return err
	}); err != nil {
		return fmt.Errorf("udm probe: %w", err)
	}
	v["udm.generate_auth_data_subtree_wall_us_per_op"] = us(out.ns)
	v["udm.generate_auth_data_subtree_virtual_ms_per_op"] = virtMs(out.cycles)

	udrClient := udr.NewClient(p.inv)
	if out, err = probe(&p.acct, 4, 400, func(i int) error {
		_, err := udrClient.NextAuth(p.ctx, p.supis[i%len(p.supis)])
		return err
	}); err != nil {
		return fmt.Errorf("udr probe: %w", err)
	}
	v["udr.next_auth_wall_ns_per_op"] = out.ns
	v["udr.next_auth_virtual_us_per_op"] = virtUs(out.cycles)

	// sbi: one POST to an echo handler on a server of our own, in each codec.
	avReq := &paka.UDMGenerateAVRequest{
		SUPI: p.supis[0], OPc: make([]byte, 16), RAND: make([]byte, 16),
		SQN: make([]byte, 6), AMFID: []byte{0x80, 0x00}, SNN: r.snn,
	}
	avResp, err := paka.GenerateAV(make([]byte, 16), avReq)
	if err != nil {
		return err
	}
	registry := sbi.NewRegistry()
	echo := sbi.NewServer("bench-echo", env)
	echo.HandleDual("/echo", sbi.BinHandler(func(context.Context, *paka.UDMGenerateAVRequest) (*paka.UDMGenerateAVResponse, error) {
		resp := *avResp
		return &resp, nil
	}))
	if err := registry.Register(echo); err != nil {
		return err
	}
	for _, codec := range []string{"json", "binary"} {
		client := sbi.NewClient("bench-probe", env, registry)
		if codec == "binary" {
			client.EnableBinary()
		}
		var resp paka.UDMGenerateAVResponse
		if out, err = probe(&p.acct, 4, 1000, func(int) error { return client.Post(p.ctx, "bench-echo", "/echo", avReq, &resp) }); err != nil {
			return fmt.Errorf("sbi %s probe: %w", codec, err)
		}
		v["sbi.post_"+codec+"_wall_ns_per_op"] = out.ns
		v["sbi.post_"+codec+"_virtual_us_per_op"] = virtUs(out.cycles)
		v["sbi.post_"+codec+"_allocs_per_op"] = out.allocs
	}

	// paka: one request to each module over the SBI, in the slice's mode.
	seResp, err := paka.DeriveSE(&paka.AUSFDeriveSERequest{RAND: avResp.RAND, XRESStar: avResp.XRESStar, KAUSF: avResp.KAUSF, SNN: r.snn})
	if err != nil {
		return err
	}
	for k, kind := range paka.Kinds() {
		m := shard0.Modules[kind]
		var post func(i int) error
		switch kind {
		case paka.EUDM:
			post = func(i int) error {
				req := *avReq
				req.SUPI = p.supis[i%len(p.supis)]
				return p.inv.Post(p.ctx, m.ServiceName(), paka.PathUDMGenerateAV, &req, &paka.UDMGenerateAVResponse{})
			}
		case paka.EAUSF:
			post = func(int) error {
				return p.inv.Post(p.ctx, m.ServiceName(), paka.PathAUSFDeriveSE, &paka.AUSFDeriveSERequest{
					RAND: avResp.RAND, XRESStar: avResp.XRESStar, KAUSF: avResp.KAUSF, SNN: r.snn,
				}, &paka.AUSFDeriveSEResponse{})
			}
		case paka.EAMF:
			post = func(int) error {
				return p.inv.Post(p.ctx, m.ServiceName(), paka.PathAMFDeriveKAMF, &paka.AMFDeriveKAMFRequest{
					KSEAF: seResp.KSEAF, SUPI: p.supis[0], ABBA: []byte{0, 0},
				}, &paka.AMFDeriveKAMFResponse{})
			}
		}
		if out, err = probe(&p.acct, 4, 200, post); err != nil {
			return fmt.Errorf("paka %s probe: %w", kind, err)
		}
		v["paka."+moduleNames[k]+".request_wall_us_per_op"] = us(out.ns)
	}

	// hmee.sgx: an empty ECALL and an empty ring submission on an enclave of
	// our own, so no module's TCS slots or counters are touched.
	if err := p.probeEnclave(v); err != nil {
		return err
	}

	// crypto.
	sub, entropy := p.sub, p.entropy
	hn := slice.HomeNetworkKey
	var sc *suci.SUCI
	if out, err = probe(nil, 4, 40, func(int) error {
		var err error
		sc, err = suci.Conceal(entropy, sub.supi, "0000", hn.PublicKey(), hn.ID)
		return err
	}); err != nil {
		return err
	}
	v["crypto.suci.conceal_wall_us_per_op"], v["crypto.suci.conceal_allocs_per_op"] = us(out.ns), out.allocs
	if out, err = probe(nil, 4, 40, func(int) error { _, err := hn.Deconceal(sc); return err }); err != nil {
		return err
	}
	v["crypto.suci.deconceal_wall_us_per_op"], v["crypto.suci.deconceal_allocs_per_op"] = us(out.ns), out.allocs

	cache := milenage.NewCache()
	var av paka.UDMGenerateAVResponse
	paka.AVInto(make([]byte, paka.AVBackingBytes), &av)
	if out, err = probe(nil, 10, 2000, func(int) error { return paka.GenerateAVCachedInto(cache, sub.k[:], avReq, &av) }); err != nil {
		return err
	}
	v["crypto.milenage.av_cached_wall_ns_per_op"], v["crypto.milenage.av_cached_allocs_per_op"] = out.ns, out.allocs
	if out, err = probe(nil, 10, 2000, func(int) error { _, err := paka.GenerateAV(sub.k[:], avReq); return err }); err != nil {
		return err
	}
	v["crypto.milenage.av_cold_wall_ns_per_op"], v["crypto.milenage.av_cold_allocs_per_op"] = out.ns, out.allocs

	// The UE-side derivation chain: RES*, K_AUSF, K_SEAF, K_AMF.
	var resStar [kdf.KeyLen128]byte
	var kausf, kseaf, kamfOut [kdf.KeyLen256]byte
	ck, ik, rnd, res, sqnAK := make([]byte, 16), make([]byte, 16), make([]byte, 16), make([]byte, 8), make([]byte, 6)
	if out, err = probe(nil, 10, 2000, func(int) error {
		if err := kdf.ResStarInto(resStar[:], ck, ik, r.snn, rnd, res); err != nil {
			return err
		}
		if err := kdf.KAUSFInto(kausf[:], ck, ik, r.snn, sqnAK); err != nil {
			return err
		}
		if err := kdf.KSEAFInto(kseaf[:], kausf[:], r.snn); err != nil {
			return err
		}
		return kdf.KAMFInto(kamfOut[:], kseaf[:], p.supis[0], []byte{0, 0})
	}); err != nil {
		return err
	}
	v["crypto.kdf.chain_wall_ns_per_op"], v["crypto.kdf.chain_allocs_per_op"] = out.ns, out.allocs

	// admission: one admitted re-attach on a controller of our own whose
	// clock advances two token periods per call.
	clock := simclock.New(0)
	acfg := admission.DefaultConfig(clock)
	ctl := admission.NewController(acfg)
	ctl.SetArmed(true)
	gap := simclock.Cycles(2 * float64(clock.FrequencyHz()) / acfg.Rates[sbi.PriorityReattach])
	if out, err = probe(nil, 10, 4000, func(int) error {
		clock.Advance(gap)
		return ctl.Admit(p.ctx, "bench-probe/00101", sbi.PriorityReattach)
	}); err != nil {
		return fmt.Errorf("admission probe: %w", err)
	}
	v["admission.admit_wall_ns_per_op"] = out.ns

	// shard: a load and a store on a striped map from one goroutine, and
	// from one per CPU on disjoint keys; equal figures mean no contention.
	v["shard.map_wall_ns_per_op.w1"] = probeShardMap(1)
	v["shard.map_wall_ns_per_op.wN"] = probeShardMap(runtime.NumCPU())

	// topology: the slice's router where it has one, else one of our own
	// over four replicas.
	router := slice.Router
	v["topology.epoch"] = 0
	if router != nil {
		v["topology.epoch"] = float64(router.Epoch())
	} else {
		router = topology.NewRouter()
		snap := &topology.Snapshot{Epoch: 1}
		for i := 0; i < 4; i++ {
			snap.Replicas = append(snap.Replicas, topology.Replica{Index: i, Name: fmt.Sprintf("shard-%d", i)})
		}
		snap.Seal()
		if err := router.Apply(snap); err != nil {
			return err
		}
	}
	tenant := slice.GNB.Tenant()
	if out, err = probe(nil, 100, 20000, func(i int) error {
		router.Route(tenant, p.supis[i%len(p.supis)])
		return nil
	}); err != nil {
		return err
	}
	v["topology.route_wall_ns_per_op"] = out.ns
	return nil
}

// noopJob is the empty ring submission.
type noopJob struct{}

func (noopJob) Execute(*sgx.Thread) error { return nil }

func (p *prober) probeEnclave(v values) error {
	e, err := p.r.slice.Platform.Build(p.ctx, sgx.EnclaveConfig{Name: "bench-probe", SizeBytes: 1 << 20, MaxThreads: 2})
	if err != nil {
		return fmt.Errorf("probe enclave: %w", err)
	}
	defer e.Destroy()
	out, err := probe(nil, 10, 4000, func(int) error {
		return e.ECall(p.ctx, 0, 0, func(*sgx.Thread) error { return nil })
	})
	if err != nil {
		return fmt.Errorf("ecall probe: %w", err)
	}
	v["hmee.sgx.ecall_roundtrip_wall_ns_per_op"] = out.ns

	t, err := e.EnterResident(p.ctx)
	if err != nil {
		return fmt.Errorf("ring probe: %w", err)
	}
	ring := sgx.NewRing(e, t, 0)
	out, err = probe(nil, 10, 4000, func(int) error { return ring.Submit(p.ctx, noopJob{}) })
	ring.Close()
	e.LeaveResident(t)
	if err != nil {
		return fmt.Errorf("ring probe: %w", err)
	}
	v["hmee.sgx.ring_roundtrip_wall_ns_per_op"] = out.ns
	return nil
}

// probeShardMap times a Load and a Store per operation from the given
// number of goroutines, each on its own keys, and reports the slowest
// goroutine's ns/op (fastest of five rounds).
func probeShardMap(workers int) float64 {
	const keys, ops = 4096, 100_000
	m := shard.NewUint64[int]()
	for k := 0; k < keys*workers; k++ {
		m.Store(uint64(k), k)
	}
	best := math.Inf(1)
	for round := 0; round < probeBatches; round++ {
		var wg sync.WaitGroup
		t0 := now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				base := uint64(w * keys)
				for i := 0; i < ops; i++ {
					k := base + uint64(i%keys)
					n, _ := m.Load(k)
					m.Store(k, n+1)
				}
			}(w)
		}
		wg.Wait()
		best = math.Min(best, float64(now()-t0)/ops)
	}
	return best
}
