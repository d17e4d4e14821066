package experiments

import (
	"context"
	"slices"
	"time"

	"shield5g/internal/deploy"
	"shield5g/internal/gnb"
	"shield5g/internal/paka"
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

// shardPoint is one replica count of the sweep. speedup is its fleet
// throughput over the replicas=1 point's: the product of the run's
// LaneBalance (what the routing hash and a population this small leave of
// an even split) and the lanes' own capacity, speedup / LaneBalance, which
// stays at the replica count as long as a registration costs the same on
// every lane. The heap figures must stay inside FastPathAllocBudget at
// every replica count, or sharding bought throughput by spending the
// allocation-discipline work; the transition census must stay flat
// (sharding multiplies lanes, not per-registration boundary crossings).
type shardPoint struct {
	replicas int
	*sliceRun
	speedup float64
}

// ShardScaleResult is the full sweep.
type ShardScaleResult struct {
	series
	UEs    int
	Points []shardPoint
	// Deterministic reports whether a same-seed replay of the
	// replicas=8 point reproduced identical virtual-time results lane
	// by lane (allocation counters are excluded: the Go heap is not
	// part of the simulation's determinism contract).
	Deterministic bool
}

// ShardScale runs the replica sweep.
func ShardScale(ctx context.Context, cfg Config) (*ShardScaleResult, error) {
	result := &ShardScaleResult{UEs: min(max(cfg.iterations(), 160), 320)}
	point := func(replicas int) (*sliceRun, error) {
		return measure(ctx,
			deploy.SliceConfig{Isolation: paka.SGX, Seed: cfg.Seed + 53, Replicas: replicas, AVPoolDepth: 8, BinarySBI: true},
			plan{n: result.UEs, msin: 8000, warm: 9000, steady: true, heap: true, mass: gnb.MassOptions{BatchSize: 8}})
	}
	for _, replicas := range shardScaleReplicas {
		run, err := point(replicas)
		if err != nil {
			return nil, err
		}
		result.Points = append(result.Points, shardPoint{replicas: replicas, sliceRun: run})
	}
	for i := range result.Points {
		if base := result.Points[0].mass.FleetRegsPerSec; base > 0 {
			result.Points[i].speedup = result.Points[i].mass.FleetRegsPerSec / base
		}
	}

	// Same-seed replay of the widest point: every virtual-time figure
	// must reproduce exactly.
	replay, err := point(8)
	if err != nil {
		return nil, err
	}
	last := result.Points[len(result.Points)-1]
	lanes := func(r *sliceRun) (out []int) {
		for _, st := range r.mass.ShardStats {
			out = append(out, st.Registered)
		}
		return out
	}
	result.Deterministic = last.mass.Registered == replay.mass.Registered &&
		last.mass.Failed == replay.mass.Failed &&
		last.mass.Virtual == replay.mass.Virtual &&
		last.mass.FleetVirtual == replay.mass.FleetVirtual &&
		slices.Equal(lanes(last.sliceRun), lanes(replay))

	result.line("Horizontally sharded core: replica sweep (%d UEs, batch-8 + AV pool 8 + binary SBI, prewarmed)", result.UEs)
	result.csv = result.table(layout([]col[shardPoint]{
		cnt("replicas", -9, "replicas", func(p shardPoint) int { return p.replicas }),
		cnt("ok", 6, "registered", func(p shardPoint) int { return p.mass.Registered }),
		cnt("fail", 6, "failed", func(p shardPoint) int { return p.mass.Failed }),
		span("virtual", 12, time.Millisecond, "virtual_ms", func(p shardPoint) time.Duration { return p.mass.Virtual }),
		span("makespan", 12, time.Millisecond, "fleet_makespan_ms", func(p shardPoint) time.Duration { return p.mass.FleetVirtual }),
		num("fleet reg/s", 12, "%.1f", "fleet_regs_per_sec", func(p shardPoint) float64 { return p.mass.FleetRegsPerSec }),
		num("speedup", 8, "%.2fx", "speedup", func(p shardPoint) float64 { return p.speedup }),
		num("balance", 8, "%.3f", "lane_balance", func(p shardPoint) float64 { return p.mass.LaneBalance }),
		num("allocs/r", 9, "%.1f", "allocs_per_reg", func(p shardPoint) float64 { return p.perReg(float64(p.mallocs)) }),
		num("", 0, "", "bytes_per_reg", func(p shardPoint) float64 { return p.perReg(float64(p.bytes)) }),
		num("trans/r", 8, "%.1f", "transitions_per_reg", shardPoint.transPerReg),
	}, result.Points))
	result.line("fleet speedup at 8 replicas: %.2fx (acceptance: >= 3x)", last.speedup)
	if result.Deterministic {
		result.line("(same-seed replay of the replicas-8 point reproduced identical lane-by-lane virtual time)")
	} else {
		result.line("WARNING: same-seed replay diverged; the determinism contract is broken")
	}
	return result, nil
}
