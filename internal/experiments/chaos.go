package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"time"

	"shield5g/internal/chaos"
	"shield5g/internal/deploy"
	"shield5g/internal/gnb"
	"shield5g/internal/paka"
)

// chaosMaxAttempts is the driver-level registration retry budget under
// injected faults.
const chaosMaxAttempts = 5

// chaosPoint is one fault-rate level of the resilience sweep: rate is the
// per-SBI-request probability of any injected fault. Its run carries the
// final per-UE outcomes after driver retries, the faults actually drawn,
// the crash/redeploy cycles survived (each re-pays the Fig. 7 enclave load
// in virtual time and re-attests before serving again) and the retry
// layer's counters across every resilient invoker the slice built.
type chaosPoint struct {
	rate float64
	*sliceRun
}

// recovered is the number of failed attempts whose UE later registered on
// a retry, summed over failure classes.
func (p chaosPoint) recovered() (n int) {
	for _, c := range p.mass.Recovered {
		n += c
	}
	return n
}

// successPct is the registered share of the UE population.
func (p chaosPoint) successPct() float64 {
	return 100 * float64(p.mass.Registered) / float64(p.mass.Registered+p.mass.Failed)
}

// ChaosResult is the fault-injection resilience sweep.
type ChaosResult struct {
	series
	UEs    int
	Points []chaosPoint
	// Rate0OverheadPct is what the armed injector plus the resilience
	// layer cost at fault rate 0, in virtual time, over the same run on a
	// slice deployed without them (acceptance: < 5 %).
	Rate0OverheadPct float64
	// Deterministic reports whether re-running the highest fault rate
	// with the same seeds reproduced bit-identical outcome counts
	// (registered/failed/attempts and the per-class failure and recovery
	// tallies).
	Deterministic bool
}

// Chaos sweeps seeded fault-injection rates against a shielded (SGX) slice
// and measures how far the SBI resilience layer (deadlines, retry/backoff,
// circuit breakers) plus the NF degradation hooks carry mass registration:
// the sweep demonstrates convergence to near-total success at fault rates
// up to 10%, including whole-module crash/re-attest cycles, and verifies
// the determinism contract by replaying the harshest point. Every point
// provisions its population fault-free, then drives a sequential mass
// registration with driver-level retries while faults are armed.
func Chaos(ctx context.Context, cfg Config) (*ChaosResult, error) {
	result := &ChaosResult{UEs: min(max(cfg.iterations(), 30), 120)}
	// A nil mix deploys no injector and no resilience layer: the bare
	// invoker chain.
	point := func(mix *chaos.Config) (*sliceRun, error) {
		return measure(ctx, deploy.SliceConfig{Isolation: paka.SGX, Seed: cfg.Seed + 41, Chaos: mix},
			plan{n: result.UEs, msin: 5000, warm: 9998, steady: true, mass: gnb.MassOptions{MaxAttempts: chaosMaxAttempts}})
	}
	armed := func(rate float64) (*sliceRun, error) {
		mix := chaos.DefaultMix(cfg.Seed+101, rate)
		return point(&mix)
	}
	for _, rate := range []float64{0, 0.02, 0.05, 0.10} {
		run, err := armed(rate)
		if err != nil {
			return nil, err
		}
		result.Points = append(result.Points, chaosPoint{rate, run})
	}
	bare, err := point(nil)
	if err != nil {
		return nil, err
	}
	result.Rate0OverheadPct = 100 * (1 - float64(bare.mass.Virtual)/float64(result.Points[0].mass.Virtual))

	// Determinism: replay the harshest point on a fresh same-seed slice
	// and compare every outcome count.
	last := result.Points[len(result.Points)-1]
	replay, err := armed(last.rate)
	if err != nil {
		return nil, err
	}
	result.Deterministic = sameOutcome(last.mass, replay.mass)

	result.line("Fault injection vs SBI resilience (%d UEs, <=%d attempts per UE, sequential driver)", result.UEs, chaosMaxAttempts)
	result.csv = result.table(layout([]col[chaosPoint]{
		num("rate", -6, "%.2f", "rate", func(p chaosPoint) float64 { return p.rate }),
		cnt("ok", 5, "registered", func(p chaosPoint) int { return p.mass.Registered }),
		cnt("fail", 5, "failed", func(p chaosPoint) int { return p.mass.Failed }),
		cnt("attempts", 8, "attempts", func(p chaosPoint) int { return p.mass.Attempts }),
		cnt("recovered", 9, "recovered", chaosPoint.recovered),
		cnt("crashes", 8, "restarts", func(p chaosPoint) uint64 { return p.restarts }),
		cnt("reauth", 7, "reauths", func(p chaosPoint) uint64 { return p.reauths }),
		cnt("represt", 6, "reprovisions", func(p chaosPoint) uint64 { return p.reprovisions }),
		cnt("expired", 7, "expired", func(p chaosPoint) uint64 { return p.expired }),
		span("median", 10, 10*time.Microsecond, "median_setup_ms", func(p chaosPoint) time.Duration { return p.setup.Median }),
		num("success", 9, "%.1f%%", "success_pct", chaosPoint.successPct),
		cnt("", 0, "sbi_retries", func(p chaosPoint) uint64 { return p.resilience.Retries }),
		cnt("", 0, "breaker_opens", func(p chaosPoint) uint64 { return p.resilience.Breaker.Opens }),
		cnt("", 0, "breaker_rejected", func(p chaosPoint) uint64 { return p.resilience.Breaker.Rejected }),
	}, result.Points))
	var injected strings.Builder
	for _, kind := range []string{"latency", "error", "drop", "aex-storm", "evict", "crash"} {
		if n, ok := last.injected[kind]; ok {
			fmt.Fprintf(&injected, " %s=%d", kind, n)
		}
	}
	result.line("injected at rate %.2f:%s", last.rate, injected.String())
	rs := last.resilience
	result.line("resilience at rate %.2f: sbi_attempts=%d sbi_retries=%d retry_after_honored=%d deadline_hits=%d breaker_opens=%d probes=%d rejected=%d",
		last.rate, rs.Attempts, rs.Retries, rs.RetryAfterHonored, rs.DeadlineHits,
		rs.Breaker.Opens, rs.Breaker.Probes, rs.Breaker.Rejected)
	result.line("armed injector + resilience layer at rate 0: %.2f%% of virtual time over the bare chain", result.Rate0OverheadPct)
	if result.Deterministic {
		result.line("(same-seed replay of the %.0f%% point reproduced identical outcome counts —", 100*last.rate)
		result.line(" the fault schedule and every recovery are deterministic in virtual time)")
	} else {
		result.line("WARNING: same-seed replay diverged; the determinism contract is broken")
	}
	return result, nil
}

// sameOutcome compares the deterministic outcome of two mass runs.
func sameOutcome(a, b *gnb.MassResult) bool {
	return a.Registered == b.Registered &&
		a.Failed == b.Failed &&
		a.Attempts == b.Attempts &&
		reflect.DeepEqual(a.FailureCounts, b.FailureCounts) &&
		reflect.DeepEqual(a.Recovered, b.Recovered)
}
