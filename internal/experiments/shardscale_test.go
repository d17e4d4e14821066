package experiments

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"shield5g/internal/deploy"
	"shield5g/internal/paka"
)

// TestShardScaleFleetSpeedup is the acceptance check of the replica sweep:
// 8 replicas must deliver at least 3x the fleet registration throughput of
// one, the same-seed replay must reproduce lane for lane, every
// point must stay inside FastPathAllocBudget, and the speedup must split
// into lane capacity (which scales with the replica count) and routing
// balance (which a population of 160 cannot judge, so it is asserted on
// 32 768 routed SUPIs).
func TestShardScaleFleetSpeedup(t *testing.T) {
	cfg := Config{Seed: 7, Iterations: 160}
	r, err := ShardScale(context.Background(), cfg)
	if err != nil {
		t.Fatalf("ShardScale: %v", err)
	}
	if len(r.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(r.Points))
	}
	for _, p := range r.Points {
		if p.mass.Registered != r.UEs || p.mass.Failed != 0 {
			t.Errorf("replicas=%d: Registered=%d Failed=%d, want %d/0", p.replicas, p.mass.Registered, p.mass.Failed, r.UEs)
		}
		// The race-instrumented runtime's shadow allocations land in
		// MemStats, so the budget only holds on plain builds: tier-1's
		// `go test ./...` is the run that gates it (89-92 measured).
		if allocs := p.perReg(float64(p.mallocs)); !RaceEnabled && allocs >= FastPathAllocBudget {
			t.Errorf("replicas=%d: %.1f allocs/reg, budget is < %d", p.replicas, allocs, FastPathAllocBudget)
		}
		// Lanes are equal: what the speedup loses against the replica
		// count is the balance, to within the spread of per-UE cost.
		if capacity := p.speedup / p.mass.LaneBalance; capacity < 0.95*float64(p.replicas) || capacity > 1.05*float64(p.replicas) {
			t.Errorf("replicas=%d: speedup %.2fx / lane balance %.3f = %.2f lanes of capacity", p.replicas, p.speedup, p.mass.LaneBalance, capacity)
		}
		if len(p.mass.ShardStats) != p.replicas {
			t.Errorf("replicas=%d: %d lanes reported", p.replicas, len(p.mass.ShardStats))
		}
	}
	// The one-replica point is the baseline, and its makespan is the same
	// quantity as every other point's: the lane's summed request accounts,
	// which under SGX exceed the shared-clock advance by the enclave-side
	// cycles the platform charges to its own clock
	// (gnb's TestFleetVirtualIsLaneBusy pins the relation).
	if one := r.Points[0].mass; one.FleetVirtual <= one.Virtual {
		t.Errorf("one-replica makespan %v, shared-clock advance %v: lane busy must include enclave-side cycles", one.FleetVirtual, one.Virtual)
	}
	if at8 := r.Points[len(r.Points)-1].speedup; at8 < 3 {
		t.Errorf("fleet speedup at 8 replicas = %.2fx, acceptance is >= 3x", at8)
	}
	if !r.Deterministic {
		t.Error("same-seed replay of the replicas-8 point diverged")
	}
	for _, replicas := range shardScaleReplicas[1:] {
		if got := routedBalance(t, replicas, 32768); got < 0.95 {
			t.Errorf("replicas=%d: routing balance %.4f over 32768 SUPIs, want >= 0.95", replicas, got)
		}
	}

	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "replica sweep") {
		t.Fatal("render missing header")
	}
	buf.Reset()
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if !strings.Contains(buf.String(), "fleet_regs_per_sec") {
		t.Fatal("CSV missing header")
	}
}

// routedBalance deploys a sharded slice and routes (without registering)
// n sequential SUPIs through its gNB: the lane balance of the routing
// alone, N / (lanes x busiest lane).
func routedBalance(t *testing.T, replicas, n int) float64 {
	t.Helper()
	s, err := deploy.NewSlice(context.Background(), deploy.SliceConfig{
		Isolation: paka.Container, Seed: 7, Replicas: replicas,
	})
	if err != nil {
		t.Fatalf("NewSlice(replicas=%d): %v", replicas, err)
	}
	defer s.Stop()
	lanes := make([]int, replicas)
	for i := 0; i < n; i++ {
		lanes[s.GNB.ShardOf(fmt.Sprintf("imsi-00101%010d", 8000+i))]++
	}
	return float64(n) / float64(replicas*slices.Max(lanes))
}
