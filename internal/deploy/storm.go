package deploy

import (
	"context"
	"fmt"

	"shield5g/internal/admission"
	"shield5g/internal/chaos"
	"shield5g/internal/gnb"
	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
	"shield5g/internal/ue"
)

// The signaling storm's nominal class mix (the remainder is fresh attach
// load) and arrival jitter.
const (
	StormEmergencyFrac = 0.05
	StormReattachFrac  = 0.60
	stormJitterFrac    = 0.2
)

// LimiterProfile is the "limiter on" arm of a storm comparison: bounded
// queues, the default priority admission buckets and client throttling.
// The zero OverloadProfile is the "off" arm.
func LimiterProfile() *OverloadProfile {
	acfg := admission.DefaultConfig(nil)
	return &OverloadProfile{Shed: true, Admission: &acfg, Throttle: true}
}

// RunStorm replays a seeded signaling storm of n open-loop arrivals
// against the slice, offered at factor times the drain rate of the chain's
// slowest virtual queue (the UDM's modelled service cost: arrival spacing
// = bottleneck / factor). newUE provisions the i'th device of a class, in
// arrival order. The storm's mass disconnect is abrupt — no deregistration
// signaling, so AMF contexts and GUTIs persist: the re-attach population
// registers once before the storm so it holds GUTIs, emergency devices are
// flagged, and the overload machinery is armed only for the replay itself.
func (s *Slice) RunStorm(ctx context.Context, seed uint64, n int, factor float64,
	newUE func(class sbi.Priority, i int) (*ue.UE, error)) (*gnb.StormResult, error) {
	plan, err := chaos.NewStormPlan(seed, chaos.StormSpec{
		N:             n,
		EmergencyFrac: StormEmergencyFrac,
		ReattachFrac:  StormReattachFrac,
		Spacing:       simclock.Cycles(float64(udmServiceCycles) / factor),
		JitterFrac:    stormJitterFrac,
	})
	if err != nil {
		return nil, err
	}
	devices := make([]*ue.UE, len(plan.Events))
	var classSize [3]int
	for i, ev := range plan.Events {
		device, err := newUE(ev.Class, classSize[ev.Class])
		if err != nil {
			return nil, fmt.Errorf("deploy: storm device %d: %w", i, err)
		}
		classSize[ev.Class]++
		switch ev.Class {
		case sbi.PriorityEmergency:
			device.SetEmergency(true)
		case sbi.PriorityReattach:
			if _, err := s.GNB.RegisterUE(ctx, device); err != nil {
				return nil, fmt.Errorf("deploy: pre-register re-attach device %d: %w", i, err)
			}
		}
		devices[i] = device
	}

	s.SetOverloadArmed(true)
	defer s.SetOverloadArmed(false)
	return s.GNB.RunStorm(ctx, gnb.StormOptions{
		Plan:   plan,
		Device: func(ev chaos.StormEvent) (*ue.UE, error) { return devices[ev.Index], nil },
		Source: "gnb-1",
	})
}
