package experiments

import (
	"context"
	"fmt"
	"time"

	"shield5g/internal/deploy"
	"shield5g/internal/gnb"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
)

// The storm experiment replays a mass-disconnect/re-attach signaling storm
// against a shielded slice at 10x the core's modelled service rate, with
// the overload-control limiter off (servers sense and queue but never
// shed) and on (bounded queues + priority admission + client throttling),
// and compares per-class goodput and tail latency. A factor-1 pair checks
// that the limiter is free when there is no overload;
// TestStormLimiterProtectsEmergencyClass holds the acceptance figures.

// stormPoint is one (factor, limiter) cell of the sweep. Its run's
// admissionDrops are registrations cut at the AMF's buckets before any
// enclave-bound work, meterSheds server-side bounded-queue rejections
// across metered services, resilience.Throttled the client-side OCI
// throttles.
type stormPoint struct {
	factor  float64
	limiter bool
	*sliceRun
}

// stormRow is one priority class of one cell: a line of the table.
type stormRow struct {
	stormPoint
	class sbi.Priority
}

func (r stormRow) result() gnb.StormClassResult { return r.storm.Class[r.class] }

// StormResult is the full sweep.
type StormResult struct {
	series
	UEs    int
	Points []stormPoint
	// EmergencyGoodputRatio is limiter-on over limiter-off emergency
	// goodput at the overload factor (acceptance: >= 2).
	EmergencyGoodputRatio float64
	// EmergencyP99Improved reports whether the limiter lowered the
	// emergency-class p99 at the overload factor.
	EmergencyP99Improved bool
	// OverheadPct is the limiter's median-setup overhead at factor 1
	// (acceptance: < 5%).
	OverheadPct float64
	// Deterministic reports whether replaying the limiter-on overload
	// point reproduced identical per-class outcome counts.
	Deterministic bool
}

// Storm runs the signaling-storm survival comparison.
func Storm(ctx context.Context, cfg Config) (*StormResult, error) {
	const factor = 10.0
	result := &StormResult{UEs: min(max(cfg.iterations(), 120), 360)}
	cell := func(factor float64, limiter bool) (stormPoint, error) {
		profile := &deploy.OverloadProfile{}
		if limiter {
			profile = deploy.LimiterProfile()
		}
		run, err := measure(ctx,
			deploy.SliceConfig{Isolation: paka.SGX, Seed: cfg.Seed + 43, AVPoolDepth: 8, Overload: profile},
			plan{n: result.UEs, msin: 7000, storm: factor})
		return stormPoint{factor, limiter, run}, err
	}
	for _, c := range []stormPoint{{factor: factor}, {factor: factor, limiter: true}, {factor: 1}, {factor: 1, limiter: true}} {
		point, err := cell(c.factor, c.limiter)
		if err != nil {
			return nil, err
		}
		result.Points = append(result.Points, point)
	}

	emergency := func(p stormPoint) gnb.StormClassResult { return p.storm.Class[sbi.PriorityEmergency] }
	off, on := emergency(result.Points[0]), emergency(result.Points[1])
	if off.GoodputPerSec > 0 {
		result.EmergencyGoodputRatio = on.GoodputPerSec / off.GoodputPerSec
	}
	result.EmergencyP99Improved = on.SetupTimes.Summarize().P99 < off.SetupTimes.Summarize().P99
	if base := result.Points[2].setup.Median; base > 0 {
		result.OverheadPct = 100 * (float64(result.Points[3].setup.Median)/float64(base) - 1)
	}

	// Determinism: replay the limiter-on overload point on a fresh
	// same-seed slice and compare every per-class outcome count.
	replay, err := cell(factor, true)
	if err != nil {
		return nil, err
	}
	counts := func(r *sliceRun) (out [3][4]int) {
		for c, cl := range r.storm.Class {
			out[c] = [4]int{cl.Offered, cl.Registered, cl.Shed, cl.Failed}
		}
		return out
	}
	result.Deterministic = counts(result.Points[1].sliceRun) == counts(replay.sliceRun)

	// The text prints the emergency class first, the series in class order.
	var text, series []stormRow
	for _, p := range result.Points {
		for c := range p.storm.Class {
			series = append(series, stormRow{p, sbi.Priority(c)})
			text = append(text, stormRow{p, sbi.Priority(len(p.storm.Class) - 1 - c)})
		}
	}
	cols := []col[stormRow]{
		num("factor", -8, "%.0f", "factor", func(r stormRow) float64 { return r.factor }),
		str("limiter", -7, "limiter", func(r stormRow) string { return fmt.Sprint(r.limiter) }),
		str("class", -9, "class", func(r stormRow) string { return r.class.String() }),
		cnt("offer", 5, "offered", func(r stormRow) int { return r.result().Offered }),
		cnt("ok", 5, "registered", func(r stormRow) int { return r.result().Registered }),
		cnt("shed", 5, "shed", func(r stormRow) int { return r.result().Shed }),
		cnt("", 0, "failed", func(r stormRow) int { return r.result().Failed }),
		num("goodput/s", 9, "%.1f", "goodput_per_sec", func(r stormRow) float64 { return r.result().GoodputPerSec }),
		span("p99", 9, 10*time.Microsecond, "p99_ms", func(r stormRow) time.Duration { return r.result().SetupTimes.Summarize().P99 }),
		// The class's own first-arrival-to-last-completion span, so one
		// long-retrying straggler in another class doesn't dilute goodput.
		span("makespan", 9, 100*time.Microsecond, "makespan_ms", func(r stormRow) time.Duration { return r.result().Makespan }),
		cnt("admdrop", 8, "admission_drops", func(r stormRow) uint64 { return r.admissionDrops }),
		cnt("", 0, "meter_sheds", func(r stormRow) uint64 { return r.meterSheds }),
		cnt("throttle", 8, "throttled", func(r stormRow) uint64 { return r.resilience.Throttled }),
	}
	result.line("Signaling-storm survival (%d arrivals, %.0fx overload, mix %.0f%% emergency / %.0f%% re-attach / %.0f%% fresh)",
		result.UEs, factor, 100*deploy.StormEmergencyFrac, 100*deploy.StormReattachFrac,
		100*(1-deploy.StormEmergencyFrac-deploy.StormReattachFrac))
	result.table(layout(cols, text))
	result.csv = layout(cols, series)
	result.line("emergency goodput ratio (limiter on/off at %.0fx): %.2fx; emergency p99 improved: %v",
		factor, result.EmergencyGoodputRatio, result.EmergencyP99Improved)
	result.line("limiter overhead at 1x: %.2f%% (median setup)", result.OverheadPct)
	if result.Deterministic {
		result.line("(same-seed replay of the limiter-on point reproduced identical per-class counts)")
	} else {
		result.line("WARNING: same-seed replay diverged; the determinism contract is broken")
	}
	return result, nil
}
