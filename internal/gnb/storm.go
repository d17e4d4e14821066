package gnb

import (
	"context"
	"errors"
	"fmt"
	"time"

	"shield5g/internal/admission"
	"shield5g/internal/chaos"
	"shield5g/internal/metrics"
	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
	"shield5g/internal/ue"
)

// This file is the open-loop signaling-storm driver. Unlike the closed-loop
// mass-registration drivers (which start each registration when the previous
// one finishes), the storm replays a chaos.StormPlan: every registration is
// stamped with its planned virtual arrival time, so the offered load is set
// by the plan — 10x the core's service rate if the plan says so — and the
// core's overload machinery (server load meters, admission buckets, client
// throttling) is what decides how the excess degrades.

// StormOptions configures a storm replay.
type StormOptions struct {
	// Plan is the seeded arrival sequence (chaos.NewStormPlan).
	Plan *chaos.StormPlan
	// Device maps an event to its UE. Re-attach slots must return devices
	// holding a GUTI from a previous registration (the mass-disconnect
	// population); emergency slots return devices in emergency mode.
	Device func(ev chaos.StormEvent) (*ue.UE, error)
	// Source is the gNB identity keyed into the AMF's per-(gNB, PLMN)
	// admission buckets.
	Source string
}

// StormClassResult is one priority class's outcome.
type StormClassResult struct {
	// Offered counts arrivals; Registered completed registrations; Shed
	// rejections by overload control (503 OVERLOAD anywhere in the chain);
	// Failed everything else.
	Offered    int
	Registered int
	Shed       int
	Failed     int
	// SetupTimes records per-registration setup latency (queue wait
	// included — the virtual FIFO delay is charged to the request account).
	SetupTimes *metrics.Recorder
	// Makespan is the class's own completion span on the arrival axis
	// (first arrival to last completion).
	Makespan time.Duration
	// GoodputPerSec is completed registrations per virtual second of the
	// class's makespan — the class's own span, not the global one, so a
	// single long-retrying straggler in another class doesn't dilute it.
	GoodputPerSec float64
}

// StormResult is the replayed storm's outcome, broken down by class
// (indexed by sbi.Priority).
type StormResult struct {
	Class [3]StormClassResult
	// Window is the plan's arrival span; Makespan stretches to the last
	// completion on the arrival axis — queue backlog pushes it out.
	Window   time.Duration
	Makespan time.Duration
	// FailureCounts/FirstErrors tally non-completed registrations by
	// failure class, shed included.
	FailureCounts map[string]int
	FirstErrors   map[string]error
}

// TotalShed sums overload rejections across classes.
func (r *StormResult) TotalShed() int {
	return r.Class[0].Shed + r.Class[1].Shed + r.Class[2].Shed
}

// RunStorm replays the plan sequentially in arrival order, one registration
// attempt per event (a shed registration counts as shed, not retried);
// determinism comes from the plan (arrival stamps, class mix) plus the env
// seed, the same way the sequential mass driver is bit-for-bit
// reproducible.
func (g *GNB) RunStorm(ctx context.Context, opts StormOptions) (*StormResult, error) {
	if opts.Plan == nil || len(opts.Plan.Events) == 0 {
		return nil, errors.New("gnb: storm needs a non-empty plan")
	}
	if opts.Device == nil {
		return nil, errors.New("gnb: storm needs a Device mapper")
	}
	result := &StormResult{
		FailureCounts: make(map[string]int),
		FirstErrors:   make(map[string]error),
	}
	var arrivals [3]int
	for _, ev := range opts.Plan.Events {
		arrivals[ev.Class]++
	}
	for c := range result.Class {
		result.Class[c].SetupTimes = metrics.NewRecorder(arrivals[c])
	}
	if opts.Source != "" {
		ctx = admission.WithSource(ctx, opts.Source)
	}

	// Arrival stamps are absolute on the shared clock's axis.
	base := g.env.Clock.Elapsed()
	freq := g.env.Clock.FrequencyHz()
	var makespan simclock.Cycles
	var classMakespan [3]simclock.Cycles

	for _, ev := range opts.Plan.Events {
		device, err := opts.Device(ev)
		if err != nil {
			return result, fmt.Errorf("gnb: storm device %d: %w", ev.Index, err)
		}
		cr := &result.Class[ev.Class]
		cr.Offered++

		ectx := simclock.WithArrival(ctx, base+ev.At)
		var acct simclock.Account
		sctx := simclock.WithAccount(ectx, &acct)

		register := g.RegisterUE
		if _, hasGUTI := device.GUTI(); hasGUTI {
			register = g.ReRegisterUE
		}
		sess, rerr := register(sctx, device)
		if rerr != nil {
			class := failureClass(rerr)
			// A breaker opened by overload failures is part of the overload
			// response, so CIRCUIT_OPEN rejections count as shed too.
			if class == sbi.CauseOverload || class == sbi.CauseCircuitOpen {
				cr.Shed++
			} else {
				cr.Failed++
			}
			result.FailureCounts[class]++
			if _, seen := result.FirstErrors[class]; !seen {
				result.FirstErrors[class] = rerr
			}
			continue
		}
		cr.Registered++
		cr.SetupTimes.Add(sess.SetupTime)
		done := ev.At + acct.Total()
		if done > makespan {
			makespan = done
		}
		if done > classMakespan[ev.Class] {
			classMakespan[ev.Class] = done
		}
	}

	result.Window = simclock.Duration(opts.Plan.Window, freq)
	result.Makespan = simclock.Duration(makespan, freq)
	for c := range result.Class {
		result.Class[c].Makespan = simclock.Duration(classMakespan[c], freq)
		if s := result.Class[c].Makespan.Seconds(); s > 0 {
			result.Class[c].GoodputPerSec = float64(result.Class[c].Registered) / s
		}
	}
	return result, nil
}
