package experiments

import (
	"context"
	"fmt"
	"time"

	"shield5g/internal/crypto/milenage"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/deploy"
	"shield5g/internal/gnb"
	"shield5g/internal/metrics"
	"shield5g/internal/nf/udm"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/ue"
)

// plan is what one measured slice run does between deploy and stop. The
// MSINs are the caller's: two sweeps that share a seed must not share a
// population.
type plan struct {
	// n is the population size; device i carries MSIN msin+i (a storm
	// keeps one pool per class, prefixed with the class digit).
	n, msin int
	// warm is the MSIN the warm-up probes from: one registration per
	// shard, found by routing ownership, pays the chain's TLS handshakes
	// and enclave warm-up outside the window. 0 skips the warm-up.
	warm int
	// steady keeps everything but steady state out of the window: the
	// population is provisioned (and, with an AV pool, prewarmed) before
	// it opens, and the warm-up rides the driver's keep-alive connection
	// so every module's session state already exists. Otherwise devices
	// are provisioned as the driver asks for them, the way the paper
	// drives gNBSIM.
	steady bool
	// heap counts the window's allocations inside an AllocWindow
	// (collector off, one P — not for a wall-clock comparison).
	heap bool
	// mass configures the closed-loop driver (N and NewUE are the
	// harness's); storm > 0 replays an open-loop storm at that overload
	// factor instead; drive replaces both with the caller's own loop.
	mass  gnb.MassOptions
	storm float64
	drive func(ctx context.Context, s *deploy.Slice, device func(i int) (*ue.UE, error)) error
}

// sliceRun is what a measured slice run hands its table: the driver's own
// result, the counter deltas over the window, and the snapshots taken
// when it closed.
type sliceRun struct {
	mass  *gnb.MassResult
	storm *gnb.StormResult
	// setup summarises every registration's setup time.
	setup metrics.Summary
	// trans is the fleet-wide EENTER+EEXIT census of the window, enters
	// shard 0's eUDM EENTER share of it; mallocs and bytes are the
	// AllocWindow figures (plan.heap).
	trans, enters, mallocs, bytes uint64
	// stableRS is the eUDM's median stable response time as the UDM sees
	// it (the paper's R_S).
	stableRS       time.Duration
	pool           udm.AVPoolStats
	resilience     sbi.ResilienceStats
	admissionDrops uint64
	meterSheds     uint64
	// injected counts the faults drawn, by kind; restarts the module
	// crash/redeploy cycles survived; reauths, reprovisions and expired
	// the AMF-, UDM- and AUSF-side recoveries — each summed over every
	// shard.
	injected                                 map[string]uint64
	restarts, reauths, reprovisions, expired uint64
}

// perReg spreads a figure of the window over the registrations it bought.
func (r *sliceRun) perReg(v float64) float64 {
	if r.mass.Registered == 0 {
		return 0
	}
	return v / float64(r.mass.Registered)
}

// transPerReg is the fleet's transition census per registration.
func (r *sliceRun) transPerReg() float64 { return r.perReg(float64(r.trans)) }

// census reads the two transition counters a window is bracketed by.
func census(s *deploy.Slice) (trans, enters uint64) {
	for _, shard := range s.Shards {
		for _, m := range shard.Modules {
			st := m.Stats()
			trans += st.EENTER + st.EEXIT
		}
	}
	if m := s.Modules[paka.EUDM]; m != nil {
		enters = m.Stats().EENTER
	}
	return trans, enters
}

// measure deploys cfg, runs p against it and stops it again. A chaos
// slice is armed for the window only: warm-up and provisioning run
// fault-free so every point starts from the same deployed state, and a
// disarmed injector draws nothing, keeping the decision streams aligned
// across points and replays.
func measure(ctx context.Context, cfg deploy.SliceConfig, p plan) (*sliceRun, error) {
	s, err := deploy.NewSlice(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer s.Stop()
	if s.Chaos != nil {
		s.Chaos.SetArmed(false)
	}

	warmCtx := ctx
	if p.steady && p.mass.BatchSize > 0 {
		warmCtx = paka.WithConnection(ctx, 1, p.mass.BatchSize)
	}
	// A fixed MSIN per shard index would leave the shards it happens not
	// to hash to cold, charging their first contact to the window.
	warmed := make([]bool, len(s.Shards))
	for probe, cold := 0, len(s.Shards); p.warm > 0 && cold > 0; probe++ {
		if probe > 10000 {
			return nil, fmt.Errorf("experiments: no warm-up SUPI found for %d of %d shards", cold, len(s.Shards))
		}
		device, err := sliceSubscriber(ctx, s, p.warm+probe)
		if err != nil {
			return nil, err
		}
		if shard := s.GNB.ShardOf(device.SUPIString()); !warmed[shard] {
			if _, err := s.GNB.RegisterUE(warmCtx, device); err != nil {
				return nil, err
			}
			warmed[shard], cold = true, cold-1
		}
	}
	for _, shard := range s.Shards {
		if shard.RemoteUDM != nil {
			shard.RemoteUDM.Response().MarkWarm()
		}
	}

	device := func(i int) (*ue.UE, error) { return sliceSubscriber(ctx, s, p.msin+i) }
	if p.steady {
		devices, supis := make([]*ue.UE, p.n), make([]string, p.n)
		for i := range devices {
			if devices[i], err = device(i); err != nil {
				return nil, err
			}
			supis[i] = devices[i].SUPIString()
		}
		if cfg.AVPoolDepth > 0 {
			if err := s.PrewarmAVPool(ctx, supis); err != nil {
				return nil, err
			}
		}
		device = func(i int) (*ue.UE, error) { return devices[i], nil }
	}

	run := &sliceRun{}
	drive := func() (err error) {
		switch {
		case p.drive != nil:
			return p.drive(ctx, s, device)
		case p.storm > 0:
			run.storm, err = s.RunStorm(ctx, cfg.Seed, p.n, p.storm, func(class sbi.Priority, i int) (*ue.UE, error) {
				return sliceSubscriber(ctx, s, (int(class)+1)*1_000_000_000+p.msin+i)
			})
		default:
			opts := p.mass
			opts.N, opts.NewUE = p.n, device
			run.mass, err = s.GNB.RegisterManyWith(ctx, opts)
		}
		return err
	}
	if s.Chaos != nil {
		s.Chaos.SetArmed(true)
	}
	transBefore, entersBefore := census(s)
	if p.heap {
		run.mallocs, run.bytes, err = AllocWindow(drive)
	} else {
		err = drive()
	}
	if err != nil {
		return nil, err
	}
	if s.Chaos != nil {
		s.Chaos.SetArmed(false)
		run.injected = s.Chaos.Counts()
	}
	trans, enters := census(s)
	run.trans, run.enters = trans-transBefore, enters-entersBefore

	setups := &metrics.Recorder{}
	switch {
	case run.mass != nil:
		setups = run.mass.SetupTimes
	case run.storm != nil:
		for _, class := range run.storm.Class {
			setups.Merge(class.SetupTimes)
		}
	}
	run.setup = setups.Summarize()
	if udm := s.Shards[0].RemoteUDM; udm != nil {
		rs, err := summarizeWindow("R_S", udm.Response().Stable)
		if err != nil {
			return nil, err
		}
		run.stableRS = rs.Median
	}
	run.pool, run.resilience = s.AVPoolStats(), s.ResilienceStats()
	run.admissionDrops = s.AdmissionStats().TotalDropped()
	for _, st := range s.OverloadStats() {
		run.meterSheds += st.TotalShed()
	}
	for _, shard := range s.Shards {
		for _, m := range shard.Modules {
			run.restarts += m.Restarts()
		}
		run.reauths += shard.AMF.Reauths()
		run.reprovisions += shard.UDM.Reprovisions()
		run.expired += shard.AUSF.ExpiredSessions()
	}
	return run, nil
}

// sliceSubscriber provisions one subscriber+device pair on a slice.
func sliceSubscriber(ctx context.Context, s *deploy.Slice, msin int) (*ue.UE, error) {
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: fmt.Sprintf("%010d", msin)}
	opc, err := milenage.ComputeOPc(rigKey, make([]byte, 16))
	if err != nil {
		return nil, err
	}
	if err := s.ProvisionSubscriber(ctx, supi, rigKey, opc); err != nil {
		return nil, err
	}
	return ue.New(ue.Config{
		SUPI:                 supi,
		K:                    rigKey,
		OPc:                  opc,
		HomeNetworkPublicKey: s.HomeNetworkKey.PublicKey(),
		HomeNetworkKeyID:     s.HomeNetworkKey.ID,
		Env:                  s.Env,
	})
}
