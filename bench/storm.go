package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"

	"shield5g/internal/admission"
	"shield5g/internal/chaos"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
)

// The storm ladder offers open-loop arrivals on the virtual arrival axis:
// every registration is stamped with its planned arrival time exactly as
// gnb.RunStorm stamps it, so offered load is set by the plan and the
// generator is never late. Wall-clock load stays closed-loop: one worker
// replays the plan in order.

const (
	// stormBottleneckCycles mirrors deploy's modelled UDM service cost, the
	// drain rate of the slowest virtual queue; rung rates are multiples of
	// the rate it implies (666.7 registrations per virtual second).
	stormBottleneckCycles = 3_600_000
	stormEmergencyFrac    = 0.05
	stormReattachFrac     = 0.60
	stormJitterFrac       = 0.2
	stormSource           = "gnb-1"

	// Limits a rung must meet to count towards the knee.
	kneeP99Ms      = 100.0
	kneeLossShare  = 0.01
	kneeBacklogMs  = 100.0
	overloadFactor = 10.0
	// measuredFactor is the rung the count-type metrics are taken at: the
	// highest one at which the virtual queues stay empty. At 1x the
	// bottleneck queue is critically loaded and random-walks, so the mean
	// core cost there differs by a factor of two from seed to seed.
	measuredFactor = 0.75
	// wallFactor is the highest rung whose registrations feed the wall
	// series: up to it every arrival registers, so the mix is the plan's.
	wallFactor = 1.0
	// overloadScale makes the overload rung this many times longer than
	// the others, so that its emergency class (5 %) has about a thousand
	// samples for a p99.
	overloadScale = 10
)

// ladderFactors are the offered rates as multiples of the bottleneck rate;
// the overload rung comes last.
var ladderFactors = []float64{0.5, 0.75, 1, 1.25, 1.5, 2, 3, 4, 6, overloadFactor}

// rung is the outcome of one offered rate.
type rung struct {
	Factor     float64 `json:"factor"`
	RatePerS   float64 `json:"offered_virtual_regs_per_s"`
	Offered    [3]int  `json:"offered"` // by sbi.Priority: fresh, reattach, emergency
	Registered [3]int  `json:"registered"`
	Shed       [3]int  `json:"shed"`
	Failed     [3]int  `json:"failed"`
	P50Ms      float64 `json:"setup_virtual_ms_p50"`
	P99Ms      float64 `json:"setup_virtual_ms_p99"`
	LossShare  float64 `json:"failed_share"`
	BacklogMs  float64 `json:"makespan_minus_window_virtual_ms"`
	Pass       bool    `json:"meets_limits"`

	EmergencyGoodput float64 `json:"emergency_goodput_virtual_regs_per_s"`
	EmergencyP99Ms   float64 `json:"emergency_setup_virtual_ms_p99"`

	regs []regRecord // registered arrivals in arrival order
	sums laneSums
}

func (g *rung) offered() int    { return g.Offered[0] + g.Offered[1] + g.Offered[2] }
func (g *rung) registered() int { return g.Registered[0] + g.Registered[1] + g.Registered[2] }

// ladder is the outcome of the whole storm workload.
type ladder struct {
	Rungs []*rung `json:"rungs"`
	// KneeRatePerS is the highest offered rate that met the limits with
	// every lower rung meeting them too.
	KneeRatePerS float64 `json:"knee_virtual_regs_per_s"`
}

// newPlan draws the arrival times of one rung from chaos.NewStormPlan and
// then deals the classes out again, in a seeded order, so that the mix is
// exactly the nominal one. The generator draws every arrival's class
// independently; over 2 000 arrivals the share of fresh attaches, which
// cost half as much again as re-attaches, then wanders enough between
// seeds to move allocations per registration by 3 %.
func newPlan(seed uint64, factor float64, arrivals int) (*chaos.StormPlan, error) {
	plan, err := chaos.NewStormPlan(seed, chaos.StormSpec{
		N:             arrivals,
		EmergencyFrac: stormEmergencyFrac,
		ReattachFrac:  stormReattachFrac,
		Spacing:       simclock.Cycles(stormBottleneckCycles / factor),
		JitterFrac:    stormJitterFrac,
	})
	if err != nil {
		return nil, err
	}
	emergency := int(math.Round(stormEmergencyFrac * float64(arrivals)))
	reattach := int(math.Round(stormReattachFrac * float64(arrivals)))
	rng := rand.New(rand.NewPCG(seed, streamStorm))
	for i, p := range rng.Perm(arrivals) {
		switch {
		case p < emergency:
			plan.Events[i].Class = sbi.PriorityEmergency
		case p < emergency+reattach:
			plan.Events[i].Class = sbi.PriorityReattach
		default:
			plan.Events[i].Class = sbi.PriorityFresh
		}
	}
	return plan, nil
}

// stormRig deploys the storm slice for one rung and provisions one device
// per arrival: emergency devices in emergency mode, re-attach devices
// registered once before the storm so they hold a GUTI (the storm's mass
// disconnect is abrupt, AMF contexts persist).
func newStormRig(ctx context.Context, w *workload, seed uint64, iso paka.Isolation, factor float64, arrivals int) (*rig, *chaos.StormPlan, error) {
	plan, err := newPlan(seed, factor, arrivals)
	if err != nil {
		return nil, nil, err
	}
	sw := *w
	sw.population = arrivals // device i serves arrival i; the warm-up devices follow
	r, err := newRig(ctx, &sw, seed, iso)
	if err != nil {
		return nil, nil, err
	}
	t0 := now()
	l := r.lanes[0]
	l.ctx = admission.WithSource(l.ctx, stormSource)
	for _, ev := range plan.Events {
		switch ev.Class {
		case sbi.PriorityEmergency:
			r.ues[ev.Index].SetEmergency(true)
		case sbi.PriorityReattach:
			if err := l.mustRegister(ev.Index); err != nil {
				r.slice.Stop()
				return nil, nil, fmt.Errorf("pre-register re-attach population: %w", err)
			}
		}
	}
	r.attachNs += now() - t0
	return r, plan, nil
}

// replayPlan offers the plan's first n arrivals to the armed slice.
func replayPlan(r *rig, plan *chaos.StormPlan, n int, g *rung) {
	l := r.lanes[0]
	freq := r.slice.Env.Clock.FrequencyHz()
	r.slice.SetOverloadArmed(true)
	defer r.slice.SetOverloadArmed(false)

	// Arrival stamps are absolute on the shared clock's axis.
	base := r.slice.Env.Clock.Elapsed()
	var makespan simclock.Cycles
	var classSpan [3]simclock.Cycles
	var res regResult
	for _, ev := range plan.Events[:n] {
		g.Offered[ev.Class]++
		ectx := simclock.WithArrival(l.ctx, base+ev.At)
		err := r.register(ectx, &l.acct, r.ues[ev.Index], uint64(ev.Index)+1, &res)
		l.issued++
		if err != nil {
			// 503 OVERLOAD anywhere in the chain, or a breaker opened by
			// it, is the overload response working: shed, not failed.
			if sbi.HasCause(err, sbi.CauseOverload) || sbi.HasCause(err, sbi.CauseCircuitOpen) {
				g.Shed[ev.Class]++
			} else {
				g.Failed[ev.Class]++
				if l.firstErr == nil {
					l.firstErr = fmt.Errorf("arrival %d at %.2fx: %w", ev.Index, g.Factor, err)
				}
			}
			continue
		}
		g.Registered[ev.Class]++
		g.regs = append(g.regs, res.record(ev.Class, false))
		g.sums.add(&res)
		if l.tr != nil {
			l.tr.record(0, uint64(ev.Index)+1, &res)
		}
		done := ev.At + res.setup()
		if done > makespan {
			makespan = done
		}
		if done > classSpan[ev.Class] {
			classSpan[ev.Class] = done
		}
	}

	ms := func(c simclock.Cycles) float64 { return float64(c) / float64(freq) * 1e3 }
	var setups, emergency []float64
	for _, rec := range g.regs {
		setups = append(setups, ms(rec.setup))
		if rec.class == sbi.PriorityEmergency {
			emergency = append(emergency, ms(rec.setup))
		}
	}
	window := plan.Events[n-1].At
	g.P50Ms = percentile(setups, 0.50)
	g.P99Ms = percentile(setups, 0.99)
	g.LossShare = 1 - float64(g.registered())/float64(g.offered())
	if makespan > window {
		g.BacklogMs = ms(makespan - window)
	}
	g.Pass = g.P99Ms <= kneeP99Ms && g.LossShare <= kneeLossShare && g.BacklogMs <= kneeBacklogMs
	if span := classSpan[sbi.PriorityEmergency]; span > 0 {
		g.EmergencyGoodput = float64(g.Registered[sbi.PriorityEmergency]) / (float64(span) / float64(freq))
	}
	g.EmergencyP99Ms = percentile(emergency, 0.99)
}

func newRung(factor float64) *rung {
	return &rung{Factor: factor, RatePerS: factor * simclock.DefaultFrequencyHz / stormBottleneckCycles}
}

// runStorm measures the storm ladder: a fresh slice per rung, the count-
// type metrics at the measuredFactor rung, the wall series over the rungs
// up to wallFactor. The ladder is a fixed plan; its length does not depend
// on --seconds.
func runStorm(ctx context.Context, w *workload, seed uint64, traced bool) (*sample, error) {
	s := &sample{w: w, ladder: &ladder{}}

	// The replay rig: the measured rung's first operations, ahead of the
	// ladder.
	r, plan, err := newStormRig(ctx, w, seed, paka.SGX, measuredFactor, w.population)
	if err != nil {
		return nil, err
	}
	s.setupS = append(s.setupS, float64(r.setupNs())/1e9)
	replay := newRung(measuredFactor)
	replayPlan(r, plan, min(replayOps, w.population), replay)
	r.slice.Stop()

	var wall []regRecord
	kneeOpen := true
	for _, factor := range ladderFactors {
		arrivals := w.population
		if factor == overloadFactor {
			arrivals *= overloadScale
		}
		measured := factor == measuredFactor

		runtime.GC()
		r, plan, err := newStormRig(ctx, w, seed, paka.SGX, factor, arrivals)
		if err != nil {
			return nil, err
		}
		if arrivals == w.population {
			s.setupS = append(s.setupS, float64(r.setupNs())/1e9)
		}
		if measured {
			s.rig = r
			if traced {
				s.tracer = newTracer(1)
				r.lanes[0].tr = s.tracer
			}
			s.openPrefix()
		}
		g := newRung(factor)
		open := now()
		replayPlan(r, plan, arrivals, g)
		s.windowNs += now() - open
		if measured {
			s.prefix = [][]regRecord{g.regs}
			s.sums = g.sums
			s.closePrefix()
		}
		if factor <= wallFactor {
			wall = append(wall, g.regs...)
		}
		if factor <= measuredFactor {
			// Higher up, rejections are the overload response at work; up
			// to here, with the queues empty, nothing may be shed or fail.
			s.offered += g.offered()
			s.registered += g.registered()
			for c := range g.Shed {
				s.shed += g.Shed[c]
				s.failed += g.Failed[c]
			}
			if s.firstErr == nil {
				s.firstErr = r.lanes[0].firstErr
			}
		}
		if g.Pass && kneeOpen {
			s.ladder.KneeRatePerS = g.RatePerS
		} else {
			kneeOpen = false
		}
		s.ladder.Rungs = append(s.ladder.Rungs, g)
		if !measured {
			r.slice.Stop()
		}
	}
	s.window = [][]regRecord{wall}
	s.rtClose = readRuntime()
	s.goroutinesEnd = runtime.NumGoroutine()
	s.compareReplay(s.prefix[0], replay.regs)

	// Container twin of the measured rung.
	twin, plan, err := newStormRig(ctx, w, seed, paka.Container, measuredFactor, w.population)
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("container twin: %w", err)
	}
	defer twin.slice.Stop()
	resetRecorders(twin.slice)
	g := newRung(measuredFactor)
	replayPlan(twin, plan, w.population, g)
	s.readTwin(twin, g.regs, s.prefix[0])
	return s, nil
}
