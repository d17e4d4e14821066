package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"shield5g/internal/admission"
	"shield5g/internal/chaos"
	"shield5g/internal/deploy"
	"shield5g/internal/gnb"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
	"shield5g/internal/ue"
)

// The storm experiment replays a mass-disconnect/re-attach signaling storm
// against a shielded slice at 10x the core's modelled service rate, with
// the overload-control limiter off (servers sense and queue but never
// shed) and on (bounded queues + priority admission + client throttling),
// and compares per-class goodput and tail latency. A factor-1 pair checks
// that the limiter is free when there is no overload;
// TestStormLimiterProtectsEmergencyClass holds the acceptance figures.

const (
	// stormBottleneckCycles mirrors the UDM's modelled per-request service
	// cost — the drain rate of the chain's slowest virtual queue. The
	// overload factor is expressed against it: arrival spacing =
	// bottleneck / factor.
	stormBottleneckCycles = 3_600_000
	stormEmergencyFrac    = 0.05
	stormReattachFrac     = 0.60
	stormJitterFrac       = 0.2
)

// StormClass is one priority class's outcome at one sweep point.
type StormClass struct {
	Offered    int
	Registered int
	Shed       int
	Failed     int
	Goodput    float64
	P99        time.Duration
	// Makespan is the class's own first-arrival-to-last-completion span;
	// goodput is registered/makespan over this span, so one long-retrying
	// straggler in another class doesn't dilute the ratio.
	Makespan time.Duration
}

// StormPoint is one (factor, limiter) cell of the sweep.
type StormPoint struct {
	Factor  float64
	Limiter bool
	// Class is indexed by sbi.Priority (fresh, reattach, emergency).
	Class [3]StormClass
	// MedianSetup is the all-classes setup median.
	MedianSetup time.Duration
	// AdmissionDrops counts registrations cut at the AMF's buckets before
	// any enclave-bound work; MeterSheds counts server-side bounded-queue
	// rejections across metered services.
	AdmissionDrops uint64
	MeterSheds     uint64
	// Throttled counts the client-side OCI throttles the resilience layer
	// applied.
	Throttled uint64
}

// StormResult is the full sweep.
type StormResult struct {
	UEs    int
	Factor float64
	Points []StormPoint
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
	n := cfg.iterations()
	if n < 120 {
		n = 120
	}
	if n > 360 {
		n = 360
	}
	const factor = 10.0

	result := &StormResult{UEs: n, Factor: factor}
	type cell struct {
		factor  float64
		limiter bool
	}
	cells := []cell{
		{factor, false},
		{factor, true},
		{1, false},
		{1, true},
	}
	for _, c := range cells {
		point, _, err := stormPoint(ctx, cfg, n, c.factor, c.limiter)
		if err != nil {
			return nil, err
		}
		result.Points = append(result.Points, point)
	}

	off, on := result.Points[0], result.Points[1]
	em := sbi.PriorityEmergency
	if off.Class[em].Goodput > 0 {
		result.EmergencyGoodputRatio = on.Class[em].Goodput / off.Class[em].Goodput
	}
	result.EmergencyP99Improved = on.Class[em].P99 < off.Class[em].P99
	base, lim := result.Points[2], result.Points[3]
	if base.MedianSetup > 0 {
		result.OverheadPct = 100 * (float64(lim.MedianSetup)/float64(base.MedianSetup) - 1)
	}

	// Determinism: replay the limiter-on overload point on a fresh
	// same-seed slice and compare every per-class outcome count.
	_, first, err := stormPoint(ctx, cfg, n, factor, true)
	if err != nil {
		return nil, err
	}
	result.Deterministic = sameStormOutcome(&on, first)
	return result, nil
}

// sameStormOutcome compares a point against a replayed run's per-class
// counts.
func sameStormOutcome(p *StormPoint, r *gnb.StormResult) bool {
	for c := range p.Class {
		if p.Class[c].Offered != r.Class[c].Offered ||
			p.Class[c].Registered != r.Class[c].Registered ||
			p.Class[c].Shed != r.Class[c].Shed ||
			p.Class[c].Failed != r.Class[c].Failed {
			return false
		}
	}
	return true
}

// stormPoint deploys a fresh slice, pre-registers the re-attach population
// (the storm's mass disconnect is abrupt — no deregistration signaling, so
// AMF contexts and GUTIs persist), then arms the overload machinery and
// replays the seeded storm plan.
func stormPoint(ctx context.Context, cfg Config, n int, factor float64, limiter bool) (StormPoint, *gnb.StormResult, error) {
	point := StormPoint{Factor: factor, Limiter: limiter}

	profile := &deploy.OverloadProfile{}
	if limiter {
		acfg := admission.DefaultConfig(nil)
		profile = &deploy.OverloadProfile{Shed: true, Admission: &acfg, Throttle: true}
	}
	s, err := deploy.NewSlice(ctx, deploy.SliceConfig{
		Isolation:   paka.SGX,
		Seed:        cfg.Seed + 43,
		AVPoolDepth: 8,
		Overload:    profile,
	})
	if err != nil {
		return point, nil, err
	}
	defer s.Stop()

	plan, err := chaos.NewStormPlan(cfg.Seed+43, chaos.StormSpec{
		N:             n,
		EmergencyFrac: stormEmergencyFrac,
		ReattachFrac:  stormReattachFrac,
		Spacing:       simclock.Cycles(float64(stormBottleneckCycles) / factor),
		JitterFrac:    stormJitterFrac,
	})
	if err != nil {
		return point, nil, err
	}

	// Provision one device pool per class; the re-attach population
	// registers once before the storm so it holds GUTIs.
	devices := make(map[sbi.Priority][]*ue.UE)
	for _, ev := range plan.Events {
		i := len(devices[ev.Class])
		device, err := sliceSubscriber(ctx, s, fmt.Sprintf("%01d%09d", int(ev.Class)+1, 7000+i))
		if err != nil {
			return point, nil, err
		}
		switch ev.Class {
		case sbi.PriorityEmergency:
			device.SetEmergency(true)
		case sbi.PriorityReattach:
			if _, err := s.GNB.RegisterUE(ctx, device); err != nil {
				return point, nil, fmt.Errorf("storm: pre-register re-attach device %d: %w", i, err)
			}
		}
		devices[ev.Class] = append(devices[ev.Class], device)
	}

	next := map[sbi.Priority]int{}
	mapper := func(ev chaos.StormEvent) (*ue.UE, error) {
		i := next[ev.Class]
		next[ev.Class]++
		return devices[ev.Class][i], nil
	}

	s.SetOverloadArmed(true)
	res, err := s.GNB.RunStorm(ctx, gnb.StormOptions{
		Plan:   plan,
		Device: mapper,
		Source: "gnb-1",
	})
	s.SetOverloadArmed(false)
	if err != nil {
		return point, nil, err
	}

	all := res.Class[0].SetupTimes
	for c := range res.Class {
		cr := res.Class[c]
		point.Class[c] = StormClass{
			Offered:    cr.Offered,
			Registered: cr.Registered,
			Shed:       cr.Shed,
			Failed:     cr.Failed,
			Goodput:    cr.GoodputPerSec,
			P99:        cr.SetupTimes.Summarize().P99,
			Makespan:   cr.Makespan,
		}
		if c > 0 {
			all.Merge(cr.SetupTimes)
		}
	}
	point.MedianSetup = all.Summarize().Median
	if s.Admission != nil {
		point.AdmissionDrops = s.Admission.Stats().TotalDropped()
	}
	for _, st := range s.OverloadStats() {
		point.MeterSheds += st.TotalShed()
	}
	point.Throttled = s.ResilienceStats().Throttled
	return point, res, nil
}

// Render prints the storm comparison.
func (r *StormResult) Render(w io.Writer) {
	fprintf(w, "Signaling-storm survival (%d arrivals, %.0fx overload, mix %.0f%% emergency / %.0f%% re-attach / %.0f%% fresh)\n",
		r.UEs, r.Factor, 100*stormEmergencyFrac, 100*stormReattachFrac,
		100*(1-stormEmergencyFrac-stormReattachFrac))
	fprintf(w, "%-8s %-7s %-9s %5s %5s %5s %9s %9s %9s %8s %8s\n",
		"factor", "limiter", "class", "offer", "ok", "shed", "goodput/s", "p99", "makespan", "admdrop", "throttle")
	for _, p := range r.Points {
		for c := len(p.Class) - 1; c >= 0; c-- {
			cl := p.Class[c]
			name := sbi.Priority(c).String()
			fprintf(w, "%-8.0f %-7v %-9s %5d %5d %5d %9.1f %9s %9s %8d %8d\n",
				p.Factor, p.Limiter, name, cl.Offered, cl.Registered, cl.Shed,
				cl.Goodput, cl.P99.Round(10*time.Microsecond),
				cl.Makespan.Round(100*time.Microsecond), p.AdmissionDrops, p.Throttled)
		}
	}
	fprintf(w, "emergency goodput ratio (limiter on/off at %.0fx): %.2fx; emergency p99 improved: %v\n",
		r.Factor, r.EmergencyGoodputRatio, r.EmergencyP99Improved)
	fprintf(w, "limiter overhead at 1x: %.2f%% (median setup)\n", r.OverheadPct)
	if r.Deterministic {
		fprintf(w, "(same-seed replay of the limiter-on point reproduced identical per-class counts)\n")
	} else {
		fprintf(w, "WARNING: same-seed replay diverged; the determinism contract is broken\n")
	}
}

// WriteCSV emits the per-point, per-class series.
func (r *StormResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, p := range r.Points {
		for c, cl := range p.Class {
			rows = append(rows, []string{
				f(p.Factor),
				fmt.Sprintf("%v", p.Limiter),
				sbi.Priority(c).String(),
				fmt.Sprintf("%d", cl.Offered),
				fmt.Sprintf("%d", cl.Registered),
				fmt.Sprintf("%d", cl.Shed),
				fmt.Sprintf("%d", cl.Failed),
				f(cl.Goodput),
				f(ms(cl.P99)),
				f(ms(cl.Makespan)),
				fmt.Sprintf("%d", p.AdmissionDrops),
				fmt.Sprintf("%d", p.MeterSheds),
				fmt.Sprintf("%d", p.Throttled),
			})
		}
	}
	return writeCSV(w, []string{
		"factor", "limiter", "class", "offered", "registered", "shed", "failed",
		"goodput_per_sec", "p99_ms", "makespan_ms", "admission_drops",
		"meter_sheds", "throttled",
	}, rows)
}
