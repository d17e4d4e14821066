package experiments

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"time"

	"shield5g/internal/chaos"
	"shield5g/internal/deploy"
	"shield5g/internal/gnb"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/ue"
)

// chaosMaxAttempts is the driver-level registration retry budget under
// injected faults.
const chaosMaxAttempts = 5

// ChaosPoint is one fault-rate level of the resilience sweep.
type ChaosPoint struct {
	// Rate is the per-SBI-request probability of any injected fault.
	Rate float64
	// Registered/Failed are final per-UE outcomes after driver retries;
	// Attempts counts every full registration attempt.
	Registered int
	Failed     int
	Attempts   int
	// Recovered is the number of failed attempts whose UE later
	// registered on a retry, summed over failure classes.
	Recovered int
	// RecoveredByClass breaks Recovered down by ProblemDetails cause.
	RecoveredByClass map[string]int
	// Injected counts the faults actually drawn, by kind.
	Injected map[string]uint64
	// Restarts is the number of whole-module crash/redeploy cycles the
	// point survived (each re-pays the Fig. 7 enclave load in virtual
	// time and re-attests before serving again).
	Restarts uint64
	// Reauths counts AMF-side re-authentications after an auth context
	// was consumed by a dropped reply; Reprovisions counts UDM-side key
	// restores into a crashed execution environment; Expired counts AUSF
	// auth contexts reaped by the pending-auth TTL.
	Reauths      uint64
	Reprovisions uint64
	Expired      uint64
	// MedianSetup is the virtual setup-time median of successful
	// registrations; Virtual is the run's shared-clock advance.
	MedianSetup time.Duration
	Virtual     time.Duration
	// SuccessPct is Registered over the UE population.
	SuccessPct float64
	// Resilience snapshots the retry layer's queryable counters across
	// every resilient invoker the slice built: SBI-level attempts and
	// retries, Retry-After floors honoured, deadline hits, and the merged
	// circuit-breaker transition counters (opens, half-open probes,
	// rejections). These used to be invisible in experiment output.
	Resilience sbi.ResilienceStats
}

// ChaosResult is the fault-injection resilience sweep.
type ChaosResult struct {
	UEs         int
	MaxAttempts int
	Points      []ChaosPoint
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
// the determinism contract by replaying the harshest point.
func Chaos(ctx context.Context, cfg Config) (*ChaosResult, error) {
	n := cfg.iterations()
	if n < 30 {
		n = 30
	}
	if n > 120 {
		n = 120
	}

	result := &ChaosResult{UEs: n, MaxAttempts: chaosMaxAttempts}
	rates := []float64{0, 0.02, 0.05, 0.10}
	var last *gnb.MassResult
	for _, rate := range rates {
		mix := chaos.DefaultMix(cfg.Seed+101, rate)
		point, res, err := chaosPoint(ctx, cfg, n, &mix)
		if err != nil {
			return nil, err
		}
		point.Rate = rate
		result.Points = append(result.Points, point)
		last = res
	}
	bare, _, err := chaosPoint(ctx, cfg, n, nil)
	if err != nil {
		return nil, err
	}
	result.Rate0OverheadPct = 100 * (1 - float64(bare.Virtual)/float64(result.Points[0].Virtual))

	// Determinism: replay the harshest point on a fresh same-seed slice
	// and compare every outcome count.
	mix := chaos.DefaultMix(cfg.Seed+101, rates[len(rates)-1])
	_, replay, err := chaosPoint(ctx, cfg, n, &mix)
	if err != nil {
		return nil, err
	}
	result.Deterministic = sameOutcome(last, replay)
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

// chaosPoint deploys a fresh slice with the injector running mix (nil: no
// injector and no resilience layer, the bare invoker chain), provisions
// the UE population fault-free, then drives a sequential mass registration
// with driver-level retries while faults are armed.
func chaosPoint(ctx context.Context, cfg Config, n int, mix *chaos.Config) (ChaosPoint, *gnb.MassResult, error) {
	s, err := deploy.NewSlice(ctx, deploy.SliceConfig{
		Isolation: paka.SGX,
		Seed:      cfg.Seed + 41,
		Chaos:     mix,
	})
	if err != nil {
		return ChaosPoint{}, nil, err
	}
	defer s.Stop()
	arm := func(bool) {}
	if mix != nil {
		arm = s.Chaos.SetArmed
	}

	// Provisioning and warm-up run fault-free so every point starts from
	// the same deployed state; a disarmed injector draws nothing, keeping
	// the decision streams aligned across points and replays.
	arm(false)
	warm, err := sliceSubscriber(ctx, s, "0000009998")
	if err != nil {
		return ChaosPoint{}, nil, err
	}
	if _, err := s.GNB.RegisterUE(ctx, warm); err != nil {
		return ChaosPoint{}, nil, err
	}
	devices := make([]*ue.UE, n)
	for i := range devices {
		if devices[i], err = sliceSubscriber(ctx, s, fmt.Sprintf("%010d", 5000+i)); err != nil {
			return ChaosPoint{}, nil, err
		}
	}
	arm(true)

	res, err := s.GNB.RegisterManyWith(ctx, gnb.MassOptions{
		N:           n,
		NewUE:       func(i int) (*ue.UE, error) { return devices[i], nil },
		MaxAttempts: chaosMaxAttempts,
		Chaos:       s.Chaos,
	})
	if err != nil {
		return ChaosPoint{}, nil, err
	}
	arm(false)

	point := ChaosPoint{
		Registered:       res.Registered,
		Failed:           res.Failed,
		Attempts:         res.Attempts,
		RecoveredByClass: res.Recovered,
		Reauths:          s.AMF.Reauths(),
		Reprovisions:     s.UDM.Reprovisions(),
		Expired:          s.AUSF.ExpiredSessions(),
		MedianSetup:      res.SetupTimes.Summarize().Median,
		Virtual:          res.Virtual,
		SuccessPct:       100 * float64(res.Registered) / float64(n),
		Resilience:       s.ResilienceStats(),
	}
	if mix != nil {
		point.Injected = s.Chaos.Counts()
	}
	for _, c := range res.Recovered {
		point.Recovered += c
	}
	for _, m := range s.Modules {
		point.Restarts += m.Restarts()
	}
	return point, res, nil
}

// Render prints the sweep table.
func (r *ChaosResult) Render(w io.Writer) {
	fprintf(w, "Fault injection vs SBI resilience (%d UEs, <=%d attempts per UE, sequential driver)\n",
		r.UEs, r.MaxAttempts)
	fprintf(w, "%-6s %5s %5s %8s %9s %8s %7s %6s %7s %10s %9s\n",
		"rate", "ok", "fail", "attempts", "recovered", "crashes", "reauth", "represt", "expired", "median", "success")
	for _, p := range r.Points {
		fprintf(w, "%-6.2f %5d %5d %8d %9d %8d %7d %6d %7d %10s %8.1f%%\n",
			p.Rate, p.Registered, p.Failed, p.Attempts, p.Recovered,
			p.Restarts, p.Reauths, p.Reprovisions, p.Expired,
			p.MedianSetup.Round(10*time.Microsecond), p.SuccessPct)
	}
	last := r.Points[len(r.Points)-1]
	fprintf(w, "injected at rate %.2f:", last.Rate)
	for _, kind := range []string{"latency", "error", "drop", "aex-storm", "evict", "crash"} {
		if n, ok := last.Injected[kind]; ok {
			fprintf(w, " %s=%d", kind, n)
		}
	}
	fprintf(w, "\n")
	rs := last.Resilience
	fprintf(w, "resilience at rate %.2f: sbi_attempts=%d sbi_retries=%d retry_after_honored=%d deadline_hits=%d breaker_opens=%d probes=%d rejected=%d\n",
		last.Rate, rs.Attempts, rs.Retries, rs.RetryAfterHonored, rs.DeadlineHits,
		rs.Breaker.Opens, rs.Breaker.Probes, rs.Breaker.Rejected)
	fprintf(w, "armed injector + resilience layer at rate 0: %.2f%% of virtual time over the bare chain\n", r.Rate0OverheadPct)
	if r.Deterministic {
		fprintf(w, "(same-seed replay of the %.0f%% point reproduced identical outcome counts —\n", 100*last.Rate)
		fprintf(w, " the fault schedule and every recovery are deterministic in virtual time)\n")
	} else {
		fprintf(w, "WARNING: same-seed replay diverged; the determinism contract is broken\n")
	}
}

// WriteCSV emits the sweep series.
func (r *ChaosResult) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			f(p.Rate),
			fmt.Sprintf("%d", p.Registered),
			fmt.Sprintf("%d", p.Failed),
			fmt.Sprintf("%d", p.Attempts),
			fmt.Sprintf("%d", p.Recovered),
			fmt.Sprintf("%d", p.Restarts),
			fmt.Sprintf("%d", p.Reauths),
			fmt.Sprintf("%d", p.Reprovisions),
			fmt.Sprintf("%d", p.Expired),
			f(ms(p.MedianSetup)),
			f(p.SuccessPct),
			fmt.Sprintf("%d", p.Resilience.Retries),
			fmt.Sprintf("%d", p.Resilience.Breaker.Opens),
			fmt.Sprintf("%d", p.Resilience.Breaker.Rejected),
		})
	}
	return writeCSV(w, []string{
		"rate", "registered", "failed", "attempts", "recovered", "restarts",
		"reauths", "reprovisions", "expired", "median_setup_ms", "success_pct",
		"sbi_retries", "breaker_opens", "breaker_rejected",
	}, rows)
}
