// Package gnb simulates the 5G radio access network side: a gNB relaying
// NAS between UEs and the AMF over N1/N2, with an N3 path into the UPF,
// plus the gNBSIM-style mass-registration driver the paper uses for its
// large-scale experiments and an SDR profile for the OTA test.
package gnb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"shield5g/internal/chaos"
	"shield5g/internal/costmodel"
	"shield5g/internal/metrics"
	"shield5g/internal/nf/amf"
	"shield5g/internal/nf/upf"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
	"shield5g/internal/topology"
	"shield5g/internal/ue"
)

// RadioProfile models the access-side latency per NAS round trip.
type RadioProfile struct {
	Name string
	// RTTCycles is the UE<->gNB round-trip cost (RRC/MAC processing and
	// the air interface) charged per NAS exchange.
	RTTCycles simclock.Cycles
}

// GNBSIM is the paper's simulated RAN entity. The per-round-trip cost
// aggregates everything between the UE stimulus and the core's NAS
// handler that is not SBI or module time: RRC/NGAP processing, SCTP, OAI
// registration timers. It is calibrated (~14 ms per NAS round trip) so
// that end-to-end session setup lands in the paper's ~62 ms regime while
// the SGX-attributable share stays a small fraction (§V-B4).
func GNBSIM() RadioProfile {
	return RadioProfile{Name: "gnbsim", RTTCycles: 26_400_000}
}

// USRPX310 models the paper's OTA gNB: a USRP x310 software-defined radio
// with OAI L1/L2, adding real air-interface latency on top of the RAN
// processing.
func USRPX310() RadioProfile {
	return RadioProfile{Name: "usrp-x310", RTTCycles: 52_800_000} // ~22 ms per round trip
}

// Config wires a gNB.
type Config struct {
	Env *costmodel.Env
	// AMFs is the core's replica pool, the N2 peers, in shard-index order
	// (matching the routing snapshots the Router receives): the gNB routes
	// each UE to the AMF owning its SUPI.
	AMFs []*amf.AMF
	// Router resolves a SUPI to a replica index from the last-known-good
	// topology snapshot.
	Router *topology.Router
	// UPF is the N3 peer for the data path (optional; nil disables
	// user-plane forwarding).
	UPF *upf.UPF
	// MCC/MNC are broadcast in SIB1; COTS UEs check them before
	// attaching.
	MCC, MNC string
	// Radio selects the access profile (GNBSIM default).
	Radio RadioProfile
	// Chaos is the slice's fault injector (nil without one). Each parallel
	// mass-registration worker draws its fault decisions from the
	// injector's per-worker stream, so they are deterministic per worker;
	// the sequential driver uses the injector's root stream.
	Chaos *chaos.Injector
}

// GNB is one simulated base station.
type GNB struct {
	env    *costmodel.Env
	amfs   []*amf.AMF
	router *topology.Router
	upf    *upf.UPF
	mcc    string
	mnc    string
	radio  RadioProfile
	chaos  *chaos.Injector

	nextRANUE atomic.Uint64
}

// New creates a gNB.
func New(cfg Config) (*GNB, error) {
	if cfg.Env == nil || len(cfg.AMFs) == 0 || cfg.Router == nil {
		return nil, errors.New("gnb: Env, AMFs and Router are required")
	}
	for _, a := range cfg.AMFs {
		if a == nil {
			return nil, errors.New("gnb: nil AMF replica")
		}
	}
	if cfg.MCC == "" || cfg.MNC == "" {
		return nil, errors.New("gnb: broadcast PLMN (MCC/MNC) is required")
	}
	radio := cfg.Radio
	if radio.Name == "" {
		radio = GNBSIM()
	}
	return &GNB{
		env:    cfg.Env,
		amfs:   cfg.AMFs,
		router: cfg.Router,
		upf:    cfg.UPF,
		mcc:    cfg.MCC,
		mnc:    cfg.MNC,
		radio:  radio,
		chaos:  cfg.Chaos,
	}, nil
}

// Replicas reports the size of the gNB's AMF pool.
func (g *GNB) Replicas() int { return len(g.amfs) }

// Tenant reports the gNB's (gNB, PLMN) identity, "gnb/"+MCC+MNC. Routing
// ignores it: every tenant routes over the whole replica set.
func (g *GNB) Tenant() string { return "gnb/" + g.BroadcastPLMN() }

// ShardOf resolves a SUPI to its owning replica index under the current
// last-known-good snapshot. A gNB that has not yet received a snapshot
// answers 0 (the static-wiring fallback — routing never blocks on the
// control plane).
func (g *GNB) ShardOf(supi string) int {
	idx, ok := g.router.Route("", supi)
	if !ok || idx < 0 || idx >= len(g.amfs) {
		return 0
	}
	return idx
}

// amfFor picks the AMF replica owning the device's SUPI.
func (g *GNB) amfFor(device *ue.UE) (*amf.AMF, int) {
	idx := g.ShardOf(device.SUPIString())
	return g.amfs[idx], idx
}

// BroadcastPLMN is the PLMN the gNB announces.
func (g *GNB) BroadcastPLMN() string { return g.mcc + g.mnc }

// Radio reports the access profile in use.
func (g *GNB) Radio() RadioProfile { return g.radio }

// Session is one attached UE's RAN context.
type Session struct {
	gnb     *GNB
	amf     *amf.AMF
	shard   int
	ue      *ue.UE
	ranUEID uint64
	teid    uint32

	// SetupTime is the end-to-end registration duration in virtual time
	// (the paper's session setup measurement).
	SetupTime time.Duration
}

// Shard reports the replica index that served this session.
func (s *Session) Shard() int { return s.shard }

// maxNASRounds bounds the registration exchange (resync adds one extra
// challenge round).
const maxNASRounds = 12

// RegisterUE runs a complete UE registration through the core: SUCI
// registration request, AKA challenge/response (with one resynchronisation
// retry if needed), security mode, and registration accept. It returns the
// RAN session and charges all costs to ctx's account.
func (g *GNB) RegisterUE(ctx context.Context, device *ue.UE) (*Session, error) {
	return g.register(ctx, device, (*ue.UE).BuildRegistrationRequest)
}

// ReRegisterUE runs a mobility registration using the UE's stored 5G-GUTI
// (for example after the UE moved to this gNB): the core resolves the
// temporary identity and re-authenticates without a SUCI ever crossing
// the air interface.
func (g *GNB) ReRegisterUE(ctx context.Context, device *ue.UE) (*Session, error) {
	return g.register(ctx, device, (*ue.UE).BuildReRegistrationRequest)
}

// register is the body of both entry points; build produces the device's
// initial uplink for the serving network name.
func (g *GNB) register(ctx context.Context, device *ue.UE, build func(*ue.UE, context.Context, string) ([]byte, error)) (*Session, error) {
	if err := device.DetectNetwork(g.BroadcastPLMN()); err != nil {
		return nil, err
	}

	// Pin the request account so a caller without one still gets a
	// coherent setup-time measurement.
	acct := simclock.AccountFrom(ctx)
	ctx = simclock.WithAccount(ctx, acct)
	start := acct.Total()

	ranUEID := g.nextRANUE.Add(1)

	// One routing decision per registration, on the SUPI: the owning
	// replica serves the whole vertical slice (AMF -> AUSF -> UDM ->
	// modules) and, for a mobility registration, minted the GUTI and holds
	// its TMSI binding.
	a, shardIdx := g.amfFor(device)
	uplink, err := build(device, ctx, a.ServingNetworkName())
	if err != nil {
		return nil, err
	}
	if err := g.driveRegistration(ctx, a, device, ranUEID, uplink); err != nil {
		return nil, err
	}
	return &Session{
		gnb:       g,
		amf:       a,
		shard:     shardIdx,
		ue:        device,
		ranUEID:   ranUEID,
		SetupTime: g.env.Model.Duration(acct.Total() - start),
	}, nil
}

// driveRegistration relays the NAS exchange between UE and the owning
// AMF replica until the registration completes.
func (g *GNB) driveRegistration(ctx context.Context, a *amf.AMF, device *ue.UE, ranUEID uint64, initialUplink []byte) error {
	g.chargeRadio(ctx)
	downlink, err := a.HandleInitialUE(ctx, ranUEID, initialUplink)
	if err != nil {
		return fmt.Errorf("gnb: initial UE message: %w", err)
	}

	for round := 0; round < maxNASRounds; round++ {
		up, done, err := device.HandleDownlinkNAS(ctx, downlink)
		if err != nil {
			return fmt.Errorf("gnb: UE NAS handling: %w", err)
		}
		if done && up == nil {
			break
		}
		if up == nil {
			return errors.New("gnb: UE stalled without uplink")
		}
		g.chargeRadio(ctx)
		downlink, err = a.HandleUplinkNAS(ctx, ranUEID, up)
		if err != nil {
			return fmt.Errorf("gnb: uplink NAS: %w", err)
		}
		if downlink == nil {
			// Registration complete acknowledged.
			break
		}
		if done {
			break
		}
	}

	if _, ok := a.SUPIOf(ranUEID); !ok {
		return errors.New("gnb: registration did not complete")
	}
	return nil
}

// chargeRadio charges one access-side NAS round trip.
func (g *GNB) chargeRadio(ctx context.Context) {
	g.env.Charge(ctx, g.env.JitterFor(ctx).Scale(g.radio.RTTCycles, 0.1))
}

// RANUEID exposes the session's RAN identifier.
func (s *Session) RANUEID() uint64 { return s.ranUEID }

// EstablishPDUSession sets up a data session through SMF/UPF and records
// the assigned UE address and uplink tunnel (delivered over N2 in a real
// deployment).
func (s *Session) EstablishPDUSession(ctx context.Context, sessionID byte, dnn string) error {
	up, err := s.ue.BuildPDUSessionRequest(ctx, sessionID, dnn)
	if err != nil {
		return err
	}
	s.gnb.chargeRadio(ctx)
	down, err := s.amf.HandleUplinkNAS(ctx, s.ranUEID, up)
	if err != nil {
		return fmt.Errorf("gnb: PDU session: %w", err)
	}
	if _, _, err := s.ue.HandleDownlinkNAS(ctx, down); err != nil {
		return fmt.Errorf("gnb: PDU accept: %w", err)
	}
	teid, ok := s.amf.PDUSessionTEID(s.ranUEID)
	if !ok {
		return errors.New("gnb: AMF reported no tunnel for session")
	}
	s.teid = teid
	return nil
}

// TEID reports the uplink tunnel ID of the established PDU session.
func (s *Session) TEID() uint32 { return s.teid }

// Deregister detaches the UE from the core, releasing its AMF context, its
// GUTI binding and its PDU session, if it opened one, in the SMF and UPF.
func (s *Session) Deregister(ctx context.Context) error {
	up, err := s.ue.BuildDeregistrationRequest(ctx)
	if err != nil {
		return err
	}
	s.gnb.chargeRadio(ctx)
	if _, err := s.amf.HandleUplinkNAS(ctx, s.ranUEID, up); err != nil {
		return fmt.Errorf("gnb: deregistration: %w", err)
	}
	return nil
}

// SendData pushes a payload up the N3 tunnel and returns the data-network
// response, proving the session carries traffic (the paper's OTA
// "Test/-1 — OpenAirInterface" connection).
func (s *Session) SendData(ctx context.Context, payload []byte) ([]byte, error) {
	if s.gnb.upf == nil {
		return nil, errors.New("gnb: no UPF attached")
	}
	if s.teid == 0 {
		return nil, errors.New("gnb: no PDU session established")
	}
	s.gnb.chargeRadio(ctx)
	return s.gnb.upf.ForwardUplink(ctx, s.teid, payload)
}

// MassResult aggregates a gnbsim mass-registration run.
type MassResult struct {
	Registered int
	Failed     int
	SetupTimes *metrics.Recorder

	// Parallelism is the worker count the run actually used.
	Parallelism int
	// Wall is the real elapsed time of the driver loop.
	Wall time.Duration
	// Virtual is the shared virtual-clock advance over the run — the
	// simulated core's aggregate busy time across all registrations.
	Virtual time.Duration
	// FailureCounts tallies failed registrations by failure class (the
	// SBI ProblemDetails cause, or "internal" for everything else);
	// FirstErrors keeps the first error observed per class so failures
	// are diagnosable instead of being swallowed into a bare count.
	FailureCounts map[string]int
	FirstErrors   map[string]error

	// Attempts is the total number of registration attempts across all
	// UEs (equal to N when nothing needed a retry). Recovered tallies,
	// by failure class, the failed attempts of UEs that subsequently
	// registered on a retry — the per-failure-class recovery count of a
	// run under injected faults.
	Attempts  int
	Recovered map[string]int

	// ShardStats is the per-replica lane accounting of the run, one entry
	// per replica of the gNB's pool: every registration attempt's virtual
	// cost is attributed to the replica that served it. The shared
	// simclock.Clock sums busy cycles across all lanes, so the fleet
	// figures below derive from these lanes instead.
	ShardStats []ShardStat
	// FleetVirtual is the fleet makespan: the busiest replica lane's
	// virtual busy time, the sum of its attempts' request accounts.
	// Replicas are independent service lanes — lane work overlaps in the
	// modelled deployment even though the simulation executes it on one
	// summed clock — so N registrations spread over R lanes complete when
	// the most-loaded lane drains. Over one lane it is at least Virtual:
	// an SGX platform charges enclave-side cycles to the request account
	// and its own clock, not the shared one.
	FleetVirtual time.Duration
	// FleetRegsPerSec is Registered over FleetVirtual — the sharded
	// core's headline throughput figure.
	FleetRegsPerSec float64
	// LaneBalance is attempts / (lanes x the busiest lane's attempts):
	// the share of its busiest lane's load the average lane carries, 1
	// for a single lane or a perfect split. Fleet throughput is per-lane
	// capacity x lanes x LaneBalance, so this is the routing's share of
	// a speedup and the rest is the lanes'.
	LaneBalance float64
}

// ShardStat is one replica lane's share of a mass run.
type ShardStat struct {
	Registered int
	Failed     int
	// Busy is the lane's summed virtual cost across every attempt it
	// served (including failed ones — a shard pays for its rejects).
	Busy time.Duration

	// busy is Busy in cycles while the run tallies; finish converts it
	// once.
	busy simclock.Cycles
}

// MassOptions configures a mass-registration run.
type MassOptions struct {
	// N is the number of UEs to register.
	N int
	// NewUE provisions the i'th device. Under parallel runs it may be
	// called from multiple goroutines and must be safe for that.
	NewUE func(i int) (*ue.UE, error)
	// Parallelism is the worker count; values <= 1 select the
	// sequential driver, whose virtual-time draws are bit-for-bit
	// identical run to run for a fixed env seed. Parallel runs are
	// seed-reproducible per worker: worker w draws from the independent
	// stream Jitter.Stream(w+1) and handles exactly the indices
	// i % Parallelism == w, in order.
	Parallelism int
	// MaxAttempts bounds the full-registration attempts per UE; values
	// <= 1 register each UE exactly once (the seed behaviour). A UE whose
	// registration fails with any error is re-driven from scratch — its
	// device state resets with the next registration request — up to this
	// many times before it counts as Failed.
	MaxAttempts int
	// BatchSize, when > 0, runs every registration over a keep-alive SBI
	// connection to the P-AKA modules: up to BatchSize module requests
	// share one session (one accept + TLS handshake + teardown), so the
	// enclave's boundary machinery is amortized across the batch. The
	// sequential driver holds one connection; each parallel worker holds
	// its own. 0 keeps the seed's connection-per-request behaviour.
	BatchSize int
}

// failureClass buckets a registration error for MassResult accounting:
// SBI ProblemDetails keep their 3GPP cause string, everything else is
// "internal".
func failureClass(err error) string {
	var pd *sbi.ProblemDetails
	if errors.As(err, &pd) {
		if pd.Cause != "" {
			return pd.Cause
		}
		return fmt.Sprintf("http-%d", pd.Status)
	}
	return "internal"
}

// newMassResult returns an empty tally over shards lanes whose recorder
// holds capacity samples without growing.
func newMassResult(capacity, shards int) *MassResult {
	return &MassResult{
		SetupTimes:    metrics.NewRecorder(capacity),
		FailureCounts: make(map[string]int),
		FirstErrors:   make(map[string]error),
		Recovered:     make(map[string]int),
		ShardStats:    make([]ShardStat, shards),
	}
}

// merge folds one worker's counts into r.
func (r *MassResult) merge(o *MassResult) {
	r.Registered += o.Registered
	r.Failed += o.Failed
	r.Attempts += o.Attempts
	r.SetupTimes.Merge(o.SetupTimes)
	for i := range r.ShardStats {
		r.ShardStats[i].Registered += o.ShardStats[i].Registered
		r.ShardStats[i].Failed += o.ShardStats[i].Failed
		r.ShardStats[i].busy += o.ShardStats[i].busy
	}
	for class, n := range o.FailureCounts {
		r.FailureCounts[class] += n
		if _, seen := r.FirstErrors[class]; !seen {
			r.FirstErrors[class] = o.FirstErrors[class]
		}
	}
	for class, n := range o.Recovered {
		r.Recovered[class] += n
	}
}

// recordFailure tallies a UE that did not register against the lane that
// served its attempts and its failure class.
func (r *MassResult) recordFailure(shard int, cycles simclock.Cycles, err error) {
	class := failureClass(err)
	r.Failed++
	r.ShardStats[shard].Failed++
	r.ShardStats[shard].busy += cycles
	r.FailureCounts[class]++
	if _, seen := r.FirstErrors[class]; !seen {
		r.FirstErrors[class] = err
	}
}

// finish stamps the time bases and, from the lane accounts, the fleet
// figures once counts are final.
func (r *MassResult) finish(env *costmodel.Env, wall time.Duration, virtual time.Duration) {
	r.Wall = wall
	r.Virtual = virtual
	r.LaneBalance = 1
	total, busiest := 0, 0
	for i := range r.ShardStats {
		s := &r.ShardStats[i]
		s.Busy = env.Model.Duration(s.busy)
		r.FleetVirtual = max(r.FleetVirtual, s.Busy)
		served := s.Registered + s.Failed
		total += served
		busiest = max(busiest, served)
	}
	if busiest > 0 {
		r.LaneBalance = float64(total) / float64(len(r.ShardStats)*busiest)
	}
	if s := r.FleetVirtual.Seconds(); s > 0 {
		r.FleetRegsPerSec = float64(r.Registered) / s
	}
}

// RegisterManyWith runs a mass registration according to opts, the way
// the paper drives gNBSIM for its large-scale measurements. With
// Parallelism <= 1 it drives registrations back to back on the caller's
// goroutine; otherwise it fans the index space out over a bounded pool of
// workers, each with its own metrics recorder, failure tally, and
// deterministic jitter stream, and merges the per-worker results when the
// pool drains. A provisioning error stops the run (cancelling in-flight
// workers) and is returned alongside the partial result.
func (g *GNB) RegisterManyWith(ctx context.Context, opts MassOptions) (*MassResult, error) {
	result := newMassResult(opts.N, len(g.amfs))
	result.Parallelism = max(opts.Parallelism, 1)
	//shieldlint:wallclock the result deliberately reports wall time next to virtual time
	wallStart := time.Now()
	virtualStart := g.env.Clock.Elapsed()
	var err error
	if result.Parallelism == 1 {
		// The seed driver: the root jitter stream, no chaos worker
		// context, connection 1.
		err = g.registerStripe(ctx, opts, 1, 0, 1, result)
	} else {
		err = g.registerParallel(ctx, opts, result)
	}
	//shieldlint:wallclock closes the wall-vs-virtual split opened above
	result.finish(g.env, time.Since(wallStart), g.env.Model.Duration(g.env.Clock.Elapsed()-virtualStart))
	return result, err
}

// registerAttempts drives one UE through up to maxAttempts complete
// registrations, each on a fresh request account so setup time and the
// resilience layer's virtual deadline restart per attempt. On success it
// returns the session plus the failure classes survived along the way; on
// exhaustion it returns the last error. The cycles return is the summed
// virtual cost of every attempt, for per-shard lane attribution.
func (g *GNB) registerAttempts(ctx context.Context, device *ue.UE, maxAttempts int) (*Session, int, simclock.Cycles, map[string]int, error) {
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var recovered map[string]int
	var spent simclock.Cycles
	for attempt := 1; ; attempt++ {
		var acct simclock.Account
		sctx := simclock.WithAccount(ctx, &acct)
		sess, err := g.RegisterUE(sctx, device)
		spent += acct.Total()
		if err == nil {
			return sess, attempt, spent, recovered, nil
		}
		if attempt >= maxAttempts {
			return nil, attempt, spent, nil, err
		}
		if recovered == nil {
			recovered = make(map[string]int)
		}
		recovered[failureClass(err)]++
	}
}

// registerStripe registers the UEs first, first+stride, ... below opts.N in
// order over SBI connection conn, tallying into result, which it owns until
// it returns. A provisioning error ends the stripe and is returned; a
// cancelled ctx just ends it.
func (g *GNB) registerStripe(ctx context.Context, opts MassOptions, conn uint64, first, stride int, result *MassResult) error {
	if opts.BatchSize > 0 {
		// The stripe pipelines its registrations over its own keep-alive
		// connection to the P-AKA modules.
		ctx = paka.WithConnection(ctx, conn, opts.BatchSize)
	}
	for i := first; i < opts.N && ctx.Err() == nil; i += stride {
		device, err := opts.NewUE(i)
		if err != nil {
			return fmt.Errorf("gnb: provision UE %d: %w", i, err)
		}
		sess, attempts, cycles, recovered, err := g.registerAttempts(ctx, device, opts.MaxAttempts)
		result.Attempts += attempts
		if err != nil {
			result.recordFailure(g.ShardOf(device.SUPIString()), cycles, err)
			continue
		}
		for class, n := range recovered {
			result.Recovered[class] += n
		}
		result.Registered++
		result.SetupTimes.Add(sess.SetupTime)
		lane := &result.ShardStats[sess.Shard()]
		lane.Registered++
		lane.busy += cycles
	}
	return nil
}

// registerParallel fans registrations out over opts.Parallelism workers.
// Worker w owns the index stripe i % P == w and processes it in order,
// drawing virtual-time jitter from the independent stream
// env.Jitter.Stream(w+1) so a parallel run's cost draws are reproducible
// for a fixed seed regardless of goroutine interleaving.
func (g *GNB) registerParallel(ctx context.Context, opts MassOptions, result *MassResult) error {
	workers := min(opts.Parallelism, opts.N)
	result.Parallelism = workers
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]*MassResult, workers)
	provision := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = newMassResult(opts.N/workers+1, len(g.amfs))
			id := uint64(w) + 1
			base := simclock.WithJitter(wctx, g.env.Jitter.Stream(id))
			if g.chaos != nil {
				// Fault decisions come from the worker's own stream so
				// they, like costs, are reproducible per worker.
				base = g.chaos.WorkerContext(base, id)
			}
			if provision[w] = g.registerStripe(base, opts, id, w, workers, results[w]); provision[w] != nil {
				cancel()
			}
		}(w)
	}
	wg.Wait()

	var firstProvision error
	for w := range results {
		result.merge(results[w])
		if firstProvision == nil {
			firstProvision = provision[w]
		}
	}
	return firstProvision
}
