// Package chaos is a seed-deterministic fault injector for the simulated
// 5G core. It wraps SBI invokers and enclave-backed modules to inject the
// disturbances the paper identifies as the cost of shielding control-plane
// functions: latency spikes, 3GPP ProblemDetails errors, dropped replies,
// AEX storms, EPC page-pressure evictions, and whole-NF crash/restart
// (enclave destroyed, re-loaded and re-attested, reproducing the Fig. 7
// 0.96–0.99 min load penalty in virtual time).
//
// Determinism contract: every fault decision is drawn from dedicated PCG
// streams derived only from Config.Seed (root stream for sequential
// drivers, per-worker streams attached to the request context by the
// parallel driver). The decision streams are separate from the cost-jitter
// streams, so enabling chaos at rate zero leaves every cost draw — and
// therefore every figure — bit-identical to a run without the injector.
package chaos

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"shield5g/internal/costmodel"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
)

// Kind labels one injectable fault class.
type Kind int

// The fault taxonomy (see DESIGN.md "Fault model & resilience contract").
const (
	// KindLatency delays the request by a log-normal virtual spike.
	KindLatency Kind = iota
	// KindError answers with a transient ProblemDetails (429/500/503)
	// without reaching the server.
	KindError
	// KindDrop lets the server process the request but loses the reply:
	// the client burns a timeout and sees 504, while server state (e.g.
	// a consumed AUSF auth session) has already advanced.
	KindDrop
	// KindAEXStorm hammers the target enclave with asynchronous exits
	// before the request proceeds.
	KindAEXStorm
	// KindEvict pressures the target enclave's EPC, evicting resident
	// pages that must fault back in.
	KindEvict
	// KindCrash destroys and redeploys the target module (re-load +
	// re-attest), failing the request with a retryable 503.
	KindCrash
	kindCount
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case KindLatency:
		return "latency"
	case KindError:
		return "error"
	case KindDrop:
		return "drop"
	case KindAEXStorm:
		return "aex-storm"
	case KindEvict:
		return "evict"
	case KindCrash:
		return "crash"
	default:
		return "unknown"
	}
}

// The fault shapes: one per class, the same for every run.
const (
	// latencySpikeMedian is the median injected delay (virtual); the
	// spike is drawn log-normally with latencySigma.
	latencySpikeMedian = 5 * time.Millisecond
	latencySigma       = 1.0
	// dropTimeout is the virtual time a client waits on a lost reply.
	dropTimeout = 100 * time.Millisecond
	// retryAfter is attached to injected 429/503 ProblemDetails.
	retryAfter = 20 * time.Millisecond
	// aexBurst is the number of asynchronous exits per storm.
	aexBurst = 2_000
	// evictPages is the number of EPC pages reclaimed per eviction.
	evictPages = 4_096
)

// Config sets the per-request injection probabilities. Each rate is the
// probability that one SBI request draws that fault; the classes are
// drawn cumulatively, so every rate must be >= 0 and their sum <= 1
// (Validate).
type Config struct {
	// Seed roots the decision streams. Independent from the cost seed.
	Seed uint64

	LatencyRate  float64
	ErrorRate    float64
	DropRate     float64
	AEXStormRate float64
	EvictRate    float64
	CrashRate    float64
}

// DefaultMix spreads a total per-request fault rate across the taxonomy in
// proportions that exercise every class, crash being the rarest (it is by
// far the most expensive to recover from).
func DefaultMix(seed uint64, totalRate float64) Config {
	return Config{
		Seed:         seed,
		LatencyRate:  totalRate * 0.30,
		ErrorRate:    totalRate * 0.30,
		DropRate:     totalRate * 0.20,
		AEXStormRate: totalRate * 0.08,
		EvictRate:    totalRate * 0.06,
		CrashRate:    totalRate * 0.06,
	}
}

// TotalRate is the per-request probability of any injection.
func (c Config) TotalRate() float64 {
	return c.LatencyRate + c.ErrorRate + c.DropRate + c.AEXStormRate + c.EvictRate + c.CrashRate
}

// Validate rejects rates the cumulative draw cannot honour: a negative
// rate silently shrinks the classes after it, and a sum above 1 faults
// every request.
func (c Config) Validate() error {
	rates := [kindCount]float64{
		KindLatency: c.LatencyRate, KindError: c.ErrorRate, KindDrop: c.DropRate,
		KindAEXStorm: c.AEXStormRate, KindEvict: c.EvictRate, KindCrash: c.CrashRate,
	}
	for k, r := range rates {
		if !(r >= 0) {
			return fmt.Errorf("chaos: %s rate %v is negative", Kind(k), r)
		}
	}
	if t := c.TotalRate(); !(t <= 1) {
		return fmt.Errorf("chaos: total rate %v exceeds 1", t)
	}
	return nil
}

// Injector draws fault decisions and applies them around an inner SBI
// transport. It is safe for concurrent use; parallel drivers attach one
// decision stream per worker via WorkerContext so decisions, like costs,
// are reproducible per worker regardless of scheduling.
type Injector struct {
	env  *costmodel.Env
	cfg  Config
	root *simclock.Jitter

	// armed gates injection; deploy keeps the injector disarmed while
	// the slice itself comes up.
	armed atomic.Bool

	mu       sync.RWMutex
	crash    map[string]func(context.Context) error
	enclaves map[string]func() *sgx.Enclave

	counts [kindCount]atomic.Uint64
}

// NewInjector builds an armed injector over env.
func NewInjector(env *costmodel.Env, cfg Config) *Injector {
	inj := &Injector{
		env:      env,
		cfg:      cfg,
		root:     simclock.NewJitter(cfg.Seed),
		crash:    make(map[string]func(context.Context) error),
		enclaves: make(map[string]func() *sgx.Enclave),
	}
	inj.armed.Store(true)
	return inj
}

// SetArmed enables or disables injection. Decisions are only drawn while
// armed, so disarmed sections (deployment, warm-up) consume no stream
// state and cannot shift later decisions.
func (inj *Injector) SetArmed(v bool) { inj.armed.Store(v) }

// Stream derives the deterministic decision stream for worker i, for the
// parallel driver (stream 0 is distinct from the root sequence).
func (inj *Injector) Stream(i uint64) *simclock.Jitter { return inj.root.Stream(i) }

// Counts reports how many faults of each kind have been injected.
func (inj *Injector) Counts() map[string]uint64 {
	out := make(map[string]uint64, kindCount)
	for k := Kind(0); k < kindCount; k++ {
		if n := inj.counts[k].Load(); n > 0 {
			out[k.String()] = n
		}
	}
	return out
}

// RegisterCrash installs the crash/restart hook for a service; the hook
// must fully recover the service (redeploy + re-attest) before returning.
func (inj *Injector) RegisterCrash(service string, restart func(context.Context) error) {
	inj.mu.Lock()
	inj.crash[service] = restart
	inj.mu.Unlock()
}

// RegisterEnclave points AEX-storm and eviction faults for a service at
// whatever enclave the resolver returns when the fault lands, so a
// crash-restart's fresh enclave takes faults without registering again.
// A resolver returning nil (a service with no enclave) makes those faults
// no-ops.
func (inj *Injector) RegisterEnclave(service string, enclave func() *sgx.Enclave) {
	inj.mu.Lock()
	inj.enclaves[service] = enclave
	inj.mu.Unlock()
}

type streamKey struct{}

// WorkerContext attaches worker i's decision stream to ctx; requests
// without one draw from the injector's root stream (the sequential path).
func (inj *Injector) WorkerContext(ctx context.Context, i uint64) context.Context {
	return context.WithValue(ctx, streamKey{}, inj.Stream(i))
}

func (inj *Injector) streamFrom(ctx context.Context) *simclock.Jitter {
	if j, ok := ctx.Value(streamKey{}).(*simclock.Jitter); ok && j != nil {
		return j
	}
	return inj.root
}

// Wrap interposes the injector on an SBI transport.
func (inj *Injector) Wrap(inner sbi.Invoker) sbi.Invoker {
	return &faultyInvoker{inj: inj, inner: inner}
}

type faultyInvoker struct {
	inj   *Injector
	inner sbi.Invoker
}

// Post implements sbi.Invoker: one uniform draw per request picks a fault
// (or none) by cumulative rate, then the fault is applied.
func (f *faultyInvoker) Post(ctx context.Context, service, path string, req, resp any) error {
	inj := f.inj
	if !inj.armed.Load() {
		return f.inner.Post(ctx, service, path, req, resp)
	}

	stream := inj.streamFrom(ctx)
	u := stream.Float64()
	cfg := inj.cfg
	switch {
	case u < cfg.LatencyRate:
		inj.counts[KindLatency].Add(1)
		median := simclock.FromDuration(latencySpikeMedian, inj.env.Clock.FrequencyHz())
		inj.env.Charge(ctx, stream.LogNormal(median, latencySigma))
		return f.inner.Post(ctx, service, path, req, resp)

	case u < cfg.LatencyRate+cfg.ErrorRate:
		inj.counts[KindError].Add(1)
		return inj.transientProblem(stream, service, path)

	case u < cfg.LatencyRate+cfg.ErrorRate+cfg.DropRate:
		inj.counts[KindDrop].Add(1)
		// The server processes the request and may commit state; only the
		// reply is lost. The client pays the wait for a reply that never
		// comes and reports a gateway timeout.
		_ = f.inner.Post(ctx, service, path, req, nil)
		inj.env.Charge(ctx, simclock.FromDuration(dropTimeout, inj.env.Clock.FrequencyHz()))
		return sbi.Problem(504, "Gateway Timeout", sbi.CauseTimeout,
			"chaos: reply from %s%s dropped", service, path)

	case u < cfg.LatencyRate+cfg.ErrorRate+cfg.DropRate+cfg.AEXStormRate:
		inj.counts[KindAEXStorm].Add(1)
		if e := inj.enclaveFor(service); e != nil {
			e.InjectAEX(ctx, aexBurst)
		}
		return f.inner.Post(ctx, service, path, req, resp)

	case u < cfg.LatencyRate+cfg.ErrorRate+cfg.DropRate+cfg.AEXStormRate+cfg.EvictRate:
		inj.counts[KindEvict].Add(1)
		if e := inj.enclaveFor(service); e != nil {
			e.EvictPages(evictPages)
		}
		return f.inner.Post(ctx, service, path, req, resp)

	case u < cfg.TotalRate():
		if restart := inj.crashFor(service); restart != nil {
			inj.counts[KindCrash].Add(1)
			if err := restart(ctx); err != nil {
				return sbi.Problem(500, "Internal Server Error", sbi.CauseSystem,
					"chaos: %s crashed and failed to recover: %v", service, err)
			}
			pd := sbi.Problem(503, "Service Unavailable", sbi.CauseUnreachable,
				"chaos: %s crashed; redeployed and re-attested", service)
			pd.RetryAfter = retryAfter
			return pd
		}
		// No crash hook for this service: fall through to a clean call so
		// the decision stream still advanced exactly once.
		return f.inner.Post(ctx, service, path, req, resp)

	default:
		return f.inner.Post(ctx, service, path, req, resp)
	}
}

// transientProblem picks one of the TS 29.500 transient answers.
func (inj *Injector) transientProblem(stream *simclock.Jitter, service, path string) error {
	var pd *sbi.ProblemDetails
	switch stream.Uint64n(3) {
	case 0:
		pd = sbi.Problem(429, "Too Many Requests", sbi.CauseCongestion,
			"chaos: %s%s throttled", service, path)
		pd.RetryAfter = retryAfter
	case 1:
		pd = sbi.Problem(500, "Internal Server Error", sbi.CauseSystem,
			"chaos: %s%s internal fault", service, path)
	default:
		pd = sbi.Problem(503, "Service Unavailable", sbi.CauseUnreachable,
			"chaos: %s%s unavailable", service, path)
		pd.RetryAfter = retryAfter
	}
	return pd
}

func (inj *Injector) enclaveFor(service string) *sgx.Enclave {
	inj.mu.RLock()
	enclave := inj.enclaves[service]
	inj.mu.RUnlock()
	if enclave == nil {
		return nil
	}
	return enclave()
}

func (inj *Injector) crashFor(service string) func(context.Context) error {
	inj.mu.RLock()
	defer inj.mu.RUnlock()
	return inj.crash[service]
}

// Compile-time conformance.
var _ sbi.Invoker = (*faultyInvoker)(nil)
