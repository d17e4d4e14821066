package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"shield5g/internal/deploy"
	"shield5g/internal/gnb"
	"shield5g/internal/paka"
	"shield5g/internal/ue"
)

// The shardscale experiment sweeps the horizontally sharded core across
// replica counts {1, 2, 4, 8} on the full fast path (keep-alive batch-8,
// AV pool depth 8, binary SBI, prewarmed): each point deploys a fresh
// same-seed slice, pre-provisions and prewarms the whole UE population,
// then drives one deterministic sequential mass registration and reports
// the fleet's virtual throughput (registrations over the busiest lane's
// makespan) next to the shared-clock figure. Every point, replicas=1
// included, is built by the same constructor and measured by the same lane
// accounts, so the speedup column divides like by like; the fleet speedup
// at 8 replicas is the acceptance figure (>= 3x), held by
// TestShardScaleFleetSpeedup.

// shardScaleReplicas is the swept replica axis.
var shardScaleReplicas = []int{1, 2, 4, 8}

// ShardScalePoint is one replica count of the sweep.
type ShardScalePoint struct {
	Replicas   int
	Registered int
	Failed     int
	// Virtual is the shared-clock advance over the run; FleetVirtual is
	// the busiest replica lane's busy time (the fleet makespan), and
	// FleetRegsPS is Registered over it.
	Virtual      time.Duration
	FleetVirtual time.Duration
	FleetRegsPS  float64
	// Speedup is this point's fleet throughput over the replicas=1
	// point's. It is the product of two things reported apart:
	// LaneBalance (gnb.MassResult.LaneBalance — what the routing hash and
	// a population this small leave of an even split) and the lanes'
	// own capacity, Speedup / LaneBalance, which stays at Replicas as
	// long as a registration costs the same on every lane.
	Speedup     float64
	LaneBalance float64
	// AllocsPerReg is the steady-state heap cost per registration,
	// counted inside an AllocWindow. FastPathAllocBudget must hold at
	// every replica count, or sharding bought throughput by spending the
	// allocation-discipline work.
	AllocsPerReg float64
	BytesPerReg  float64
	// TransPerReg is the fleet-wide EENTER+EEXIT census per registration
	// over the measured window — the figure the switchless ring collapses;
	// it must stay flat across replica counts (sharding multiplies lanes,
	// not per-registration boundary crossings).
	TransPerReg float64
	// LaneRegistered is the per-shard registration spread (affinity
	// balance), in shard-index order.
	LaneRegistered []int
}

// ShardScaleResult is the full sweep.
type ShardScaleResult struct {
	UEs    int
	Points []ShardScalePoint
	// SpeedupAt8 is the fleet-throughput gain of 8 replicas over 1
	// (acceptance: >= 3).
	SpeedupAt8 float64
	// Deterministic reports whether a same-seed replay of the
	// replicas=8 point reproduced identical virtual-time results lane
	// by lane (allocation counters are excluded: the Go heap is not
	// part of the simulation's determinism contract).
	Deterministic bool
}

// ShardScale runs the replica sweep.
func ShardScale(ctx context.Context, cfg Config) (*ShardScaleResult, error) {
	n := cfg.iterations()
	if n < 160 {
		n = 160
	}
	if n > 320 {
		n = 320
	}
	result := &ShardScaleResult{UEs: n}
	for _, replicas := range shardScaleReplicas {
		point, err := shardScalePoint(ctx, cfg, n, replicas)
		if err != nil {
			return nil, err
		}
		result.Points = append(result.Points, point)
	}
	base := result.Points[0].FleetRegsPS
	for i := range result.Points {
		if base > 0 {
			result.Points[i].Speedup = result.Points[i].FleetRegsPS / base
		}
	}
	result.SpeedupAt8 = result.Points[len(result.Points)-1].Speedup

	// Same-seed replay of the widest point: every virtual-time figure
	// must reproduce exactly.
	replay, err := shardScalePoint(ctx, cfg, n, 8)
	if err != nil {
		return nil, err
	}
	last := result.Points[len(result.Points)-1]
	result.Deterministic = last.Registered == replay.Registered &&
		last.Failed == replay.Failed &&
		last.Virtual == replay.Virtual &&
		last.FleetVirtual == replay.FleetVirtual &&
		slices.Equal(last.LaneRegistered, replay.LaneRegistered)
	return result, nil
}

// fleetTransitions sums the enclave transitions (EENTER+EEXIT) across
// every P-AKA module of every shard.
func fleetTransitions(s *deploy.Slice) uint64 {
	var n uint64
	for _, shard := range s.Shards {
		for _, m := range shard.Modules {
			st := m.Stats()
			n += st.EENTER + st.EEXIT
		}
	}
	return n
}

// shardScalePoint deploys a fresh slice with the given replica count,
// provisions and prewarms the population outside the measured window,
// then drives the deterministic sequential registration run.
func shardScalePoint(ctx context.Context, cfg Config, n, replicas int) (ShardScalePoint, error) {
	point := ShardScalePoint{Replicas: replicas}
	s, err := deploy.NewSlice(ctx, deploy.SliceConfig{
		Isolation:   paka.SGX,
		Seed:        cfg.Seed + 53,
		Replicas:    replicas,
		AVPoolDepth: 8,
		BinarySBI:   true,
	})
	if err != nil {
		return point, err
	}
	defer s.Stop()

	// Warm every shard's chain (TLS handshakes, enclave warm-up, binary
	// SBI capability negotiation) so the window measures steady state.
	// One registration per shard: capability snapshots and keep-alive
	// state are per service pair, and each shard is its own chain. The
	// warm UE for each shard is found by routing ownership — a fixed MSIN
	// per shard index would leave the shards it happens not to hash to
	// cold, charging their first-contact costs to the window. The
	// warm-up also rides the same keep-alive connection identity the
	// mass driver uses, so every module's per-connection session state
	// exists before the window opens instead of being charged to it.
	warmCtx := paka.WithConnection(ctx, 1, 8)
	shardWarm := make([]bool, len(s.Shards))
	for probe, warmed := 0, 0; warmed < len(s.Shards); probe++ {
		if probe > 10000 {
			return point, fmt.Errorf("shardscale: no warm SUPI found for %d of %d shards", len(s.Shards)-warmed, len(s.Shards))
		}
		warm, err := sliceSubscriber(ctx, s, fmt.Sprintf("%010d", 9000+probe))
		if err != nil {
			return point, err
		}
		if shard := s.GNB.ShardOf(warm.SUPIString()); !shardWarm[shard] {
			if _, err := s.GNB.RegisterUE(warmCtx, warm); err != nil {
				return point, err
			}
			shardWarm[shard] = true
			warmed++
		}
	}

	// Provision and prewarm the population outside the window — the
	// operator's deployment order, same as the binsbi bench mode.
	devices := make([]*ue.UE, n)
	supis := make([]string, n)
	for i := range devices {
		device, err := sliceSubscriber(ctx, s, fmt.Sprintf("%010d", 8000+i))
		if err != nil {
			return point, err
		}
		devices[i] = device
		supis[i] = device.SUPIString()
	}
	if err := s.PrewarmAVPool(ctx, supis); err != nil {
		return point, err
	}

	transBefore := fleetTransitions(s)
	var res *gnb.MassResult
	mallocs, bytes, err := AllocWindow(func() (err error) {
		res, err = s.GNB.RegisterManyWith(ctx, gnb.MassOptions{
			N:         n,
			NewUE:     func(i int) (*ue.UE, error) { return devices[i], nil },
			BatchSize: 8,
		})
		return err
	})
	if err != nil {
		return point, err
	}

	point.Registered = res.Registered
	point.Failed = res.Failed
	point.Virtual = res.Virtual
	point.FleetVirtual = res.FleetVirtual
	point.FleetRegsPS = res.FleetRegsPerSec
	point.LaneBalance = res.LaneBalance
	if res.Registered > 0 {
		point.AllocsPerReg = float64(mallocs) / float64(res.Registered)
		point.BytesPerReg = float64(bytes) / float64(res.Registered)
		point.TransPerReg = float64(fleetTransitions(s)-transBefore) / float64(res.Registered)
	}
	point.LaneRegistered = make([]int, len(res.ShardStats))
	for i, st := range res.ShardStats {
		point.LaneRegistered[i] = st.Registered
	}
	return point, nil
}

// Render prints the sweep table.
func (r *ShardScaleResult) Render(w io.Writer) {
	fprintf(w, "Horizontally sharded core: replica sweep (%d UEs, batch-8 + AV pool 8 + binary SBI, prewarmed)\n", r.UEs)
	fprintf(w, "%-9s %6s %6s %12s %12s %12s %8s %8s %9s %8s\n",
		"replicas", "ok", "fail", "virtual", "makespan", "fleet reg/s", "speedup", "balance", "allocs/r", "trans/r")
	for _, p := range r.Points {
		fprintf(w, "%-9d %6d %6d %12s %12s %12.1f %7.2fx %8.3f %9.1f %8.1f\n",
			p.Replicas, p.Registered, p.Failed,
			p.Virtual.Round(time.Millisecond), p.FleetVirtual.Round(time.Millisecond),
			p.FleetRegsPS, p.Speedup, p.LaneBalance, p.AllocsPerReg, p.TransPerReg)
	}
	fprintf(w, "fleet speedup at 8 replicas: %.2fx (acceptance: >= 3x)\n", r.SpeedupAt8)
	if r.Deterministic {
		fprintf(w, "(same-seed replay of the replicas-8 point reproduced identical lane-by-lane virtual time)\n")
	} else {
		fprintf(w, "WARNING: same-seed replay diverged; the determinism contract is broken\n")
	}
}

// WriteCSV emits the sweep series.
func (r *ShardScaleResult) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Replicas),
			fmt.Sprintf("%d", p.Registered),
			fmt.Sprintf("%d", p.Failed),
			f(ms(p.Virtual)),
			f(ms(p.FleetVirtual)),
			f(p.FleetRegsPS),
			f(p.Speedup),
			f(p.LaneBalance),
			f(p.AllocsPerReg),
			f(p.BytesPerReg),
			f(p.TransPerReg),
		})
	}
	return writeCSV(w, []string{
		"replicas", "registered", "failed", "virtual_ms", "fleet_makespan_ms",
		"fleet_regs_per_sec", "speedup", "lane_balance", "allocs_per_reg", "bytes_per_reg",
		"transitions_per_reg",
	}, rows)
}
