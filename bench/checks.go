package main

import (
	"context"
	"fmt"
	"time"

	"shield5g/internal/chaos"
	"shield5g/internal/gnb"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/ue"
)

const (
	parityDevices  = 32 // each attaches and then re-registers: 64 registrations
	parityArrivals = 200
	parityFactor   = 4.0 // overloaded, so that shedding is compared too
)

// parityCheck keeps the replicated driver loop honest: on identically
// seeded slices the bench loop and gnb's own drivers must charge the same
// virtual time and reach the same outcomes. It runs first on every
// invocation, so a change to gnb's radio charge, NAS relay or arrival
// stamping that the bench loop does not follow stops the benchmark.
func parityCheck(ctx context.Context, seed uint64) error {
	if err := closedParity(ctx, seed); err != nil {
		return err
	}
	return stormParity(ctx, seed)
}

func closedParity(ctx context.Context, seed uint64) error {
	w := &workload{name: "parity", kind: attach, mode: fastMode, population: parityDevices}
	ours, err := newRig(ctx, w, seed, paka.SGX)
	if err != nil {
		return err
	}
	defer ours.slice.Stop()
	theirs, err := newRig(ctx, w, seed, paka.SGX)
	if err != nil {
		return err
	}
	defer theirs.slice.Stop()

	lo, lt := ours.lanes[0], theirs.lanes[0]
	var res regResult
	for round := 0; round < 2; round++ {
		for i := 0; i < parityDevices; i++ {
			if err := ours.register(lo.ctx, &lo.acct, ours.ues[i], uint64(i)+1, &res); err != nil {
				return fmt.Errorf("bench loop, device %d round %d: %w", i, round, err)
			}
			mine := ours.slice.Env.Model.Duration(res.setup())

			var sess *gnb.Session
			if round == 0 {
				sess, err = theirs.slice.GNB.RegisterUE(lt.ctx, theirs.ues[i])
			} else {
				sess, err = theirs.slice.GNB.ReRegisterUE(lt.ctx, theirs.ues[i])
			}
			if err != nil {
				return fmt.Errorf("gnb driver, device %d round %d: %w", i, round, err)
			}
			if mine != sess.SetupTime {
				return fmt.Errorf("device %d round %d: bench loop charged %v of virtual setup, gnb %v", i, round, mine, sess.SetupTime)
			}
		}
	}
	return nil
}

func stormParity(ctx context.Context, seed uint64) error {
	w := workloadByName("storm_ladder")
	ours, plan, err := newStormRig(ctx, w, seed, paka.SGX, parityFactor, parityArrivals)
	if err != nil {
		return err
	}
	defer ours.slice.Stop()
	theirs, _, err := newStormRig(ctx, w, seed, paka.SGX, parityFactor, parityArrivals)
	if err != nil {
		return err
	}
	defer theirs.slice.Stop()

	g := newRung(parityFactor)
	replayPlan(ours, plan, parityArrivals, g)

	theirs.slice.SetOverloadArmed(true)
	got, err := theirs.slice.GNB.RunStorm(theirs.lanes[0].ctx, gnb.StormOptions{
		Plan:   plan,
		Device: func(ev chaos.StormEvent) (*ue.UE, error) { return theirs.ues[ev.Index], nil },
		Source: stormSource,
	})
	theirs.slice.SetOverloadArmed(false)
	if err != nil {
		return fmt.Errorf("gnb.RunStorm: %w", err)
	}

	var mine [3]time.Duration
	for _, rec := range g.regs {
		mine[rec.class] += ours.slice.Env.Model.Duration(rec.setup)
	}
	for c := range got.Class {
		cr := &got.Class[c]
		if g.Offered[c] != cr.Offered || g.Registered[c] != cr.Registered || g.Shed[c] != cr.Shed || g.Failed[c] != cr.Failed {
			return fmt.Errorf("storm class %s: bench loop offered/registered/shed/failed %d/%d/%d/%d, gnb.RunStorm %d/%d/%d/%d",
				sbi.Priority(c), g.Offered[c], g.Registered[c], g.Shed[c], g.Failed[c],
				cr.Offered, cr.Registered, cr.Shed, cr.Failed)
		}
		var theirsTotal time.Duration
		for _, d := range cr.SetupTimes.Samples() {
			theirsTotal += d
		}
		if mine[c] != theirsTotal {
			return fmt.Errorf("storm class %s: bench loop charged %v of virtual setup in total, gnb.RunStorm %v",
				sbi.Priority(c), mine[c], theirsTotal)
		}
	}
	return nil
}

// check lists what is wrong with a sample's outputs; an empty list means
// the run is correct.
func (s *sample) check() []string {
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	if s.offered != s.registered+s.failed+s.shed {
		bad("offered %d != registered %d + failed %d + shed %d", s.offered, s.registered, s.failed, s.shed)
	}
	if s.failed > 0 {
		bad("%d registrations failed; first: %v", s.failed, s.firstErr)
	} else if s.firstErr != nil {
		bad("%v", s.firstErr)
	}

	// Hop spans must add up to the per-registration totals on both clocks,
	// and the per-registration series to the layer sums.
	prefix := flatten(s.prefix)
	var hopNs, sutNs int64
	var hopCyc, core, setup uint64
	for h := range s.sums.hopNs {
		hopNs += s.sums.hopNs[h]
		hopCyc += uint64(s.sums.hopCyc[h])
	}
	for _, r := range prefix {
		sutNs += r.sutNs
		core += uint64(r.core)
		setup += uint64(r.setup)
	}
	if s.sums.irregular > 0 {
		bad("%d registrations took an identity or resync round; hop metrics assume none", s.sums.irregular)
	} else if hopNs != s.sums.sutNs || hopCyc != uint64(s.sums.core) {
		bad("amf hop spans sum to %d ns / %d cycles, SUT totals are %d ns / %d cycles", hopNs, hopCyc, s.sums.sutNs, s.sums.core)
	}
	if s.sums.regs != len(prefix) || sutNs != s.sums.sutNs || core != uint64(s.sums.core) {
		bad("per-registration series (%d regs, %d ns, %d cycles) disagrees with layer sums (%d, %d, %d)",
			len(prefix), sutNs, core, s.sums.regs, s.sums.sutNs, s.sums.core)
	}
	if parts := uint64(s.sums.radio + s.sums.ueCyc + s.sums.core); parts != setup {
		bad("radio + UE + core = %d cycles, setup = %d", parts, setup)
	}

	d := s.after
	if d.ring.Submitted != d.ring.Completed+d.ring.Drained {
		bad("ring submitted %d != completed %d + drained %d", d.ring.Submitted, d.ring.Completed, d.ring.Drained)
	}
	served := (d.pool.Hits + d.pool.Misses) - (s.before.pool.Hits + s.before.pool.Misses)
	switch {
	case s.w.mode.avPool == 0 && served != 0:
		bad("AV pool served %d requests on a slice without a pool", served)
	case s.w.mode.avPool > 0 && served != uint64(s.sums.regs):
		bad("AV pool hits + misses = %d, AV requests served = %d", served, s.sums.regs)
	}

	if s.shed > 0 {
		bad("%d registrations shed where no queue should build", s.shed)
	}
	if s.w.kind != storm {
		var overload, admitted uint64
		for c := range d.overload.Served {
			overload += d.overload.Served[c] + d.overload.Shed[c]
			admitted += d.admission.Admitted[c] + d.admission.Dropped[c]
		}
		r := d.resil
		if overload+admitted+r.Retries+r.Throttled+r.DeadlineHits+r.Breaker.Opens != 0 {
			bad("overload, admission or resilience counters moved on a closed-loop workload: %+v %+v %+v", d.overload, d.admission, r)
		}
	} else if dropped := d.admission.Dropped[sbi.PriorityEmergency]; dropped != 0 {
		bad("admission dropped %d emergency registrations", dropped)
	}

	// Sequential classic-ECALL workloads replay bit for bit; dispatchers
	// and parallel workers interleave on shared clocks, so theirs may not.
	if len(s.rig.lanes) == 1 && !s.w.mode.switchless {
		if !s.replayIdentical {
			bad("same-seed replay of the first %d operations changed their virtual cost (mean core %+.4f %%)", replayOps, 100*s.replayDrift)
		}
	} else if s.replayDrift > 0.01 || s.replayDrift < -0.01 {
		bad("same-seed replay moved mean core virtual cost by %+.2f %%", 100*s.replayDrift)
	}
	return problems
}
