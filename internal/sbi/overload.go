package sbi

import (
	"context"
	"math"
	"sync"
	"time"

	"shield5g/internal/costmodel"
	"shield5g/internal/simclock"
)

// This file implements the TS 29.500-style overload-control layer: each
// Server can run a load meter — a deterministic virtual-queue model whose
// EWMA load is advertised to clients as an Overload Control Information
// (OCI) record on every response — and each Client records the latest OCI
// per peer so the resilience layer can throttle proportionally to
// advertised load. All time is virtual: the meter runs on the request
// arrival axis open-loop drivers stamp on the request's simclock.Call, so a
// 10x signaling storm produces the same backlog, the same sheds and the
// same Retry-After values on every run of a seed.

// CauseOverload marks a request rejected by overload control — either a
// server-side bounded-queue shed, an admission-control drop ahead of the
// enclave, or a client-side throttle. It is retryable (503) and carries
// Retry-After per TS 29.500 §6.4.
const CauseOverload = "OVERLOAD"

// Priority is the admission priority class of a registration, ordered
// least- to most-privileged. The zero value (fresh attach) is the default
// for unstamped requests.
type Priority int

// The three storm priority classes: emergency > re-registration > fresh
// attach (ROADMAP overload-control item).
const (
	PriorityFresh Priority = iota
	PriorityReattach
	PriorityEmergency
	priorityCount
)

// String names the priority class.
func (p Priority) String() string {
	switch p {
	case PriorityFresh:
		return "fresh"
	case PriorityReattach:
		return "reattach"
	case PriorityEmergency:
		return "emergency"
	default:
		return "unknown"
	}
}

// PriorityFrom extracts the priority class from ctx's simclock.Call, which
// the AMF stamps from the registration's classification; the class rides
// the whole downstream SBI chain (client throttling exempts emergency
// traffic, server meters never shed it). Unstamped requests are fresh
// attaches.
func PriorityFrom(ctx context.Context) Priority {
	if c := simclock.CallFrom(ctx); c != nil {
		return Priority(c.Priority)
	}
	return PriorityFresh
}

// OCI is the Overload Control Information a server advertises with every
// response (the modelled `3gpp-Sbi-Oci` header of TS 29.500 §6.4): the
// EWMA load percentage, the traffic reduction the server is asking its
// clients for, and the wait it suggests before retrying shed work.
type OCI struct {
	// Load is the smoothed utilisation of the server's virtual queue,
	// 0..100.
	Load int `json:"load"`
	// Reduction is the requested traffic reduction percentage (0..90);
	// clients defer that fraction of non-emergency requests.
	Reduction int `json:"reduction,omitempty"`
	// RetryAfter is the server's current drain estimate, attached to shed
	// responses and honoured by the client backoff as a wait floor.
	RetryAfter time.Duration `json:"retryAfter,omitempty"`
	// Seq orders OCI snapshots so a stale advert never overwrites a newer
	// one (TS 29.500 timestamp semantics).
	Seq uint64 `json:"seq"`
}

// OCISource yields the most recent OCI a transport observed per peer
// service; *Client implements it and the resilience layer consumes it.
type OCISource interface {
	PeerOCI(service string) (OCI, bool)
}

// OverloadConfig tunes one server's load meter.
type OverloadConfig struct {
	// ServiceCycles is the modelled per-request service cost of this
	// server — the drain rate of its virtual queue.
	ServiceCycles simclock.Cycles
	// MaxQueue bounds the virtual queue, in requests: arrivals beyond it
	// are shed with 503 OVERLOAD (emergency traffic is exempt). Zero
	// disables shedding — the meter senses, queues and advertises load but
	// never rejects, which is the "limiter off" comparison point.
	MaxQueue int
}

const (
	// overloadTargetLoad is the EWMA load (0..1) above which a server
	// asks clients for traffic reduction. Typed, so 1-overloadTargetLoad
	// rounds as the float64 subtraction it replaced did.
	overloadTargetLoad float64 = 0.7
	// overloadHalfLife is the EWMA smoothing half-life on the virtual
	// arrival axis.
	overloadHalfLife = 20 * time.Millisecond
)

// OverloadStats is a snapshot of one server meter's counters.
type OverloadStats struct {
	// Served counts admitted requests; Shed counts rejections, by class.
	Served [priorityCount]uint64
	Shed   [priorityCount]uint64
	// QueueDelay is the total virtual wait charged to admitted requests;
	// PeakQueue is the deepest queue observed, in requests.
	QueueDelay time.Duration
	PeakQueue  int
	// Load/Reduction mirror the latest advertised OCI.
	Load      int
	Reduction int
}

// TotalShed sums sheds across classes.
func (s OverloadStats) TotalShed() uint64 {
	var n uint64
	for _, v := range s.Shed {
		n += v
	}
	return n
}

// loadMeter is the per-server virtual-queue model. It is an open-loop
// queueing simulation: requests with a stamped arrival
// (simclock.ArrivalFrom) drain the backlog by their inter-arrival gap and
// then join the queue (paying the work ahead of them as a virtual delay);
// unstamped requests join at the current watermark. The meter only acts while armed, so slices run
// bit-identical to the pre-overload seed until a storm window opens.
type loadMeter struct {
	env *costmodel.Env
	cfg OverloadConfig

	mu      sync.Mutex
	armed   bool
	backlog simclock.Cycles // queued virtual work not yet drained
	last    simclock.Cycles // arrival-axis watermark
	ewma    float64         // smoothed utilisation 0..1
	seq     uint64
	oci     OCI

	served     [priorityCount]uint64
	shed       [priorityCount]uint64
	queueDelay simclock.Cycles
	peakQueue  int
}

// EnableOverload attaches a load meter to the server. The meter starts
// disarmed (SetOverloadArmed opens the storm window); env provides the
// clock frequency and the account sink for queue-delay charges — it may
// differ from the server's own env (P-AKA module servers carry none).
func (s *Server) EnableOverload(env *costmodel.Env, cfg OverloadConfig) {
	if env == nil || cfg.ServiceCycles == 0 {
		return
	}
	s.mu.Lock()
	s.meter = &loadMeter{env: env, cfg: cfg}
	s.mu.Unlock()
}

// SetOverloadArmed opens or closes the meter's sensing window. Disarmed,
// the serve path is byte-identical to a server without a meter.
func (s *Server) SetOverloadArmed(v bool) {
	if m := s.loadMeter(); m != nil {
		m.mu.Lock()
		m.armed = v
		if !v {
			m.backlog, m.last, m.ewma = 0, 0, 0
		}
		m.mu.Unlock()
	}
}

// CurrentOCI reports the latest advertised OCI; ok is false when the
// server has no armed meter.
func (s *Server) CurrentOCI() (OCI, bool) {
	m := s.loadMeter()
	if m == nil {
		return OCI{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.armed {
		return OCI{}, false
	}
	return m.oci, true
}

// OverloadStats snapshots the meter's counters (zero when no meter).
func (s *Server) OverloadStats() OverloadStats {
	m := s.loadMeter()
	if m == nil {
		return OverloadStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return OverloadStats{
		Served:     m.served,
		Shed:       m.shed,
		QueueDelay: simclock.Duration(m.queueDelay, m.env.Clock.FrequencyHz()),
		PeakQueue:  m.peakQueue,
		Load:       m.oci.Load,
		Reduction:  m.oci.Reduction,
	}
}

func (s *Server) loadMeter() *loadMeter {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.meter
}

// admit runs one request through the virtual queue: drain by the arrival
// gap, shed if the bounded queue is full (emergency exempt), otherwise
// charge the FIFO wait and enqueue the request's service cost. It returns
// a 503 OVERLOAD ProblemDetails on shed, nil on admit.
func (m *loadMeter) admit(ctx context.Context, name string, path string) *ProblemDetails {
	m.mu.Lock()
	if !m.armed {
		m.mu.Unlock()
		return nil
	}
	class := PriorityFrom(ctx)
	freq := m.env.Clock.FrequencyHz()

	// Advance the arrival axis. Unstamped requests join at the watermark:
	// they see the queue but do not drain it (the storm plan owns time).
	now := m.last
	if at, ok := simclock.ArrivalFrom(ctx); ok && at > now {
		now = at
	}
	if drained := now - m.last; drained > 0 && m.backlog > 0 {
		if drained >= m.backlog {
			m.backlog = 0
		} else {
			m.backlog -= drained
		}
	}

	// EWMA of instantaneous utilisation, decayed over the arrival gap.
	window := m.cfg.ServiceCycles * simclock.Cycles(max(m.cfg.MaxQueue, 8))
	util := float64(m.backlog) / float64(window)
	if util > 1 {
		util = 1
	}
	if dt := now - m.last; dt > 0 {
		halfLife := float64(simclock.FromDuration(overloadHalfLife, freq))
		decay := math.Exp(-float64(dt) * math.Ln2 / halfLife)
		m.ewma = m.ewma*decay + util*(1-decay)
	} else {
		m.ewma = math.Max(m.ewma, util)
	}
	m.last = now

	queued := int(m.backlog / m.cfg.ServiceCycles)
	if queued > m.peakQueue {
		m.peakQueue = queued
	}

	m.seq++
	m.refreshOCI(freq)

	if m.cfg.MaxQueue > 0 && queued >= m.cfg.MaxQueue && class != PriorityEmergency {
		m.shed[class]++
		// Only a shed response takes the snapshot's address, so only the
		// shed branch copies it to the heap.
		oci := m.oci
		m.mu.Unlock()
		pd := Problem(503, "Service Unavailable", CauseOverload,
			"%s%s: queue full (%d queued), %s-class request shed", name, path, queued, class)
		pd.RetryAfter = oci.RetryAfter
		pd.OCI = &oci
		return pd
	}

	wait := m.backlog
	m.backlog += m.cfg.ServiceCycles
	m.served[class]++
	m.queueDelay += wait
	m.mu.Unlock()

	if wait > 0 {
		// The FIFO wait behind the queued work ahead of this request.
		m.env.Charge(ctx, wait)
	}
	return nil
}

// refreshOCI recomputes the advertised snapshot from the queue alone: the
// load is the smoothed utilisation, which never exceeds 1. Callers hold
// m.mu.
func (m *loadMeter) refreshOCI(freq uint64) {
	load := m.ewma
	reduction := 0
	if load > overloadTargetLoad {
		reduction = int((load - overloadTargetLoad) / (1 - overloadTargetLoad) * 100)
		if reduction > 90 {
			reduction = 90
		}
	}
	retry := max(m.backlog, m.cfg.ServiceCycles)
	m.oci = OCI{
		Load:       int(load*100 + 0.5),
		Reduction:  reduction,
		RetryAfter: simclock.Duration(retry, freq),
		Seq:        m.seq,
	}
}

// ociTable is the client-side record of the freshest OCI per peer.
type ociTable struct {
	mu    sync.Mutex
	peers map[string]OCI
}

func (t *ociTable) record(service string, oci OCI) {
	t.mu.Lock()
	if t.peers == nil {
		t.peers = make(map[string]OCI)
	}
	if prev, ok := t.peers[service]; !ok || oci.Seq >= prev.Seq {
		t.peers[service] = oci
	}
	t.mu.Unlock()
}

// PeerOCI implements OCISource.
func (t *ociTable) PeerOCI(service string) (OCI, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	oci, ok := t.peers[service]
	return oci, ok
}

// Compile-time OCI-source conformance.
var _ OCISource = (*Client)(nil)
