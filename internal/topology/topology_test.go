package topology

import (
	"fmt"
	"sync"
	"testing"
)

func snapshot(epoch uint64, shardSize int, names ...string) *Snapshot {
	s := &Snapshot{Epoch: epoch, ShardSize: shardSize}
	for i, n := range names {
		s.Replicas = append(s.Replicas, Replica{Index: i, Name: n})
	}
	s.Seal()
	return s
}

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("shard-%d", i)
	}
	return out
}

func supiKey(i int) string { return fmt.Sprintf("imsi-0010100%07d", i) }

// balance is N / (lanes x busiest lane): the share of the busiest lane's
// capacity the average lane uses, 1.0 when every lane gets the same.
func balance(counts []int) float64 {
	total, busiest := 0, 0
	for _, c := range counts {
		total += c
		busiest = max(busiest, c)
	}
	return float64(total) / float64(len(counts)*busiest)
}

func TestOwnerDeterministicAndBalanced(t *testing.T) {
	for _, tc := range []struct {
		replicas int
		want     float64
	}{{2, 0.95}, {4, 0.95}, {8, 0.95}, {16, 0.90}} {
		s := snapshot(1, 0, names(tc.replicas)...)
		counts := make([]int, tc.replicas)
		for i := 0; i < 32768; i++ {
			key := supiKey(i)
			a, b := s.Owner(key), s.Owner(key)
			if a != b {
				t.Fatalf("Owner(%q) unstable: %d vs %d", key, a, b)
			}
			counts[a]++
		}
		if got := balance(counts); got < tc.want {
			t.Errorf("%d replicas: busiest-lane balance %.4f, want >= %.2f: %v", tc.replicas, got, tc.want, counts)
		}
	}
	if got := snapshot(1, 0, "only").Owner("any"); got != 0 {
		t.Fatalf("singleton owner = %d, want 0", got)
	}
	if got := snapshot(1, 0).Owner("any"); got != -1 {
		t.Fatalf("empty snapshot owner = %d, want -1", got)
	}
}

// without returns a sealed copy of s minus the named replica; survivors
// keep their names and are re-indexed densely, as the builder does.
func without(s *Snapshot, name string) *Snapshot {
	out := &Snapshot{Epoch: s.Epoch + 1, ShardSize: s.ShardSize}
	for _, r := range s.Replicas {
		if r.Name != name {
			out.Replicas = append(out.Replicas, Replica{Index: len(out.Replicas), Name: r.Name})
		}
	}
	out.Seal()
	return out
}

// TestConsistentHashStability is the rebalance contract, both halves over
// one pair of snapshots: removing a replica moves only the keys it owned,
// and adding it (back) moves only keys whose new owner is the new replica.
func TestConsistentHashStability(t *testing.T) {
	full := snapshot(1, 0, names(8)...)
	reduced := without(full, "shard-5")
	moved := 0
	for i := 0; i < 2048; i++ {
		key := supiKey(i)
		with := full.Replicas[full.Owner(key)].Name
		wout := reduced.Replicas[reduced.Owner(key)].Name
		if wout == "shard-5" {
			t.Fatalf("key %q routed to the absent replica", key)
		}
		if with == "shard-5" {
			moved++
			continue
		}
		if with != wout {
			t.Fatalf("key %q owned by %s without shard-5 and by %s with it", key, wout, with)
		}
	}
	if moved == 0 {
		t.Fatal("no key was owned by shard-5; test is vacuous")
	}
}

// TestShuffleShardStability: one replica joining or leaving changes a
// tenant's shard by at most one member, and a SUPI whose owner is in the
// shard on both sides keeps it.
func TestShuffleShardStability(t *testing.T) {
	full := snapshot(1, 3, names(8)...)
	shardNames := func(s *Snapshot, tenant string) map[string]bool {
		out := make(map[string]bool)
		for _, idx := range s.ShardFor(tenant) {
			out[s.Replicas[idx].Name] = true
		}
		return out
	}
	changed, kept := 0, 0
	for ti := 0; ti < 16; ti++ {
		tenant := fmt.Sprintf("gnb-%d/00101", ti)
		big := shardNames(full, tenant)
		for _, gone := range names(8) {
			reduced := without(full, gone)
			small := shardNames(reduced, tenant)
			lost := 0
			for name := range big {
				if !small[name] {
					lost++
				}
			}
			if len(small) != 3 || lost > 1 || (lost == 1) != big[gone] {
				t.Fatalf("tenant %q: shard %v -> %v when %s leaves", tenant, big, small, gone)
			}
			changed += lost
			for i := 0; i < 64; i++ {
				supi := supiKey(i)
				with := full.Replicas[full.RouteIn(tenant, supi)].Name
				wout := reduced.Replicas[reduced.RouteIn(tenant, supi)].Name
				if with != wout && small[with] && big[wout] {
					t.Fatalf("tenant %q key %q flapped %s -> %s though both stay in the shard", tenant, supi, with, wout)
				}
				if with == wout {
					kept++
				}
			}
		}
	}
	if changed == 0 || kept == 0 {
		t.Fatalf("vacuous: %d shard changes, %d kept routes", changed, kept)
	}
}

// TestPlacementGolden pins (tenant, SUPI) -> replica name, so placement
// cannot drift between processes, architectures or Go versions: a UE's
// shard affinity outlives any one binary.
func TestPlacementGolden(t *testing.T) {
	for _, tc := range []struct {
		shardSize    int
		tenant, supi string
		want         string
	}{
		{0, "gnb-1/00101", "imsi-001010000000001", "shard-5"},
		{0, "gnb-1/00101", "imsi-001010000000002", "shard-1"},
		{0, "gnb-1/00101", "imsi-001010000000003", "shard-0"},
		{0, "gnb-1/00101", "imsi-001017312345678", "shard-7"},
		{0, "gnb-2/00101", "imsi-208930000000007", "shard-3"},
		// gnb-1/00101 draws {shard-0, shard-4, shard-7}: the third and
		// fourth SUPIs keep their unrestricted owner.
		{3, "gnb-1/00101", "imsi-001010000000001", "shard-4"},
		{3, "gnb-1/00101", "imsi-001010000000002", "shard-7"},
		{3, "gnb-1/00101", "imsi-001010000000003", "shard-0"},
		{3, "gnb-1/00101", "imsi-001017312345678", "shard-7"},
		// gnb-2/00101 draws {shard-0, shard-3, shard-4}.
		{3, "gnb-2/00101", "imsi-001010000000001", "shard-3"},
		{3, "gnb-2/00101", "imsi-001010000000002", "shard-0"},
		{3, "gnb-2/00101", "imsi-208930000000007", "shard-3"},
	} {
		s := snapshot(1, tc.shardSize, names(8)...)
		if got := s.Replicas[s.RouteIn(tc.tenant, tc.supi)].Name; got != tc.want {
			t.Errorf("shard size %d: (%q, %q) -> %s, want %s", tc.shardSize, tc.tenant, tc.supi, got, tc.want)
		}
	}
}

func TestShardForSubsetAndDeterminism(t *testing.T) {
	s := snapshot(1, 3, names(8)...)
	seen := make(map[string]bool)
	for _, tenant := range []string{"gnb-a/00101", "gnb-b/00101", "gnb-c/00102", "gnb-d/00102"} {
		shard := s.ShardFor(tenant)
		if len(shard) != 3 {
			t.Fatalf("tenant %q shard size = %d, want 3", tenant, len(shard))
		}
		dup := make(map[int]bool)
		for _, idx := range shard {
			if idx < 0 || idx >= 8 {
				t.Fatalf("tenant %q shard index %d out of range", tenant, idx)
			}
			if dup[idx] {
				t.Fatalf("tenant %q shard has duplicate index %d: %v", tenant, idx, shard)
			}
			dup[idx] = true
		}
		again := s.ShardFor(tenant)
		if fmt.Sprint(shard) != fmt.Sprint(again) {
			t.Fatalf("tenant %q shard unstable: %v vs %v", tenant, shard, again)
		}
		seen[fmt.Sprint(shard)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all tenants drew the same shuffle shard: %v", seen)
	}
	// Full-width shard when the cap is 0 or >= n.
	if got := len(snapshot(1, 0, names(4)...).ShardFor("t")); got != 4 {
		t.Fatalf("uncapped shard size = %d, want 4", got)
	}
}

func TestRouteInStaysInsideShard(t *testing.T) {
	s := snapshot(1, 2, names(8)...)
	const tenant = "gnb-1/00101"
	member := make(map[int]bool)
	for _, idx := range s.ShardFor(tenant) {
		member[idx] = true
	}
	for i := 0; i < 512; i++ {
		supi := fmt.Sprintf("imsi-0010100%07d", i)
		if idx := s.RouteIn(tenant, supi); !member[idx] {
			t.Fatalf("RouteIn(%q, %q) = %d, outside shard %v", tenant, supi, idx, member)
		}
	}
}

func TestRouterEpochProtocol(t *testing.T) {
	r := NewRouter()
	if _, ok := r.Route("t", "supi"); ok {
		t.Fatal("empty router claimed a route")
	}
	s1 := snapshot(1, 0, names(2)...)
	if err := r.Apply(s1); err != nil {
		t.Fatalf("apply epoch 1: %v", err)
	}
	// Same epoch and a stale epoch both nack, leaving s1 as LKG.
	if err := r.Apply(snapshot(1, 0, names(4)...)); err == nil {
		t.Fatal("replayed epoch 1 was acked")
	}
	stale := snapshot(0, 0, names(4)...)
	stale.Epoch = 0
	if err := r.Apply(stale); err == nil {
		t.Fatal("epoch 0 was acked over epoch 1")
	}
	if r.Snapshot() != s1 {
		t.Fatal("nack disturbed the last-known-good snapshot")
	}
	// Unsealed snapshots nack regardless of epoch.
	unsealed := &Snapshot{Epoch: 9, Replicas: []Replica{{Index: 0, Name: "x"}}}
	if err := r.Apply(unsealed); err == nil {
		t.Fatal("unsealed snapshot was acked")
	}
	s3 := snapshot(3, 0, names(4)...)
	if err := r.Apply(s3); err != nil {
		t.Fatalf("apply epoch 3: %v", err)
	}
	if got := r.Epoch(); got != 3 {
		t.Fatalf("router epoch = %d, want 3", got)
	}
	applied, nacked := r.Stats()
	if applied != 2 || nacked != 3 {
		t.Fatalf("stats = (%d acked, %d nacked), want (2, 3)", applied, nacked)
	}
}

func TestApplyNacksOverwideSnapshot(t *testing.T) {
	r := NewRouter()
	if err := r.Apply(snapshot(1, 0, names(maxReplicas)...)); err != nil {
		t.Fatalf("apply %d replicas: %v", maxReplicas, err)
	}
	if err := r.Apply(snapshot(2, 0, names(maxReplicas+1)...)); err == nil {
		t.Fatalf("%d replicas were acked; the shard mask holds %d", maxReplicas+1, maxReplicas)
	}
	if got := r.Epoch(); got != 1 {
		t.Fatalf("nack moved the router to epoch %d", got)
	}
	// Consulted directly, the nacked snapshot routes over the replicas the
	// mask does hold rather than faulting.
	for _, shardSize := range []int{0, 3, maxReplicas + 1} {
		if idx := snapshot(2, shardSize, names(maxReplicas+1)...).RouteIn("t", supiKey(1)); idx < 0 || idx >= maxReplicas {
			t.Fatalf("shard size %d: over-wide RouteIn = %d", shardSize, idx)
		}
	}
	if idx, ok := r.Route("t", supiKey(63)); !ok || idx < 0 || idx >= maxReplicas {
		t.Fatalf("Route over %d replicas = (%d, %v)", maxReplicas, idx, ok)
	}
}

func TestRouteAllocatesNothing(t *testing.T) {
	for _, shardSize := range []int{0, 3} {
		r := NewRouter()
		if err := r.Apply(snapshot(1, shardSize, names(8)...)); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { r.Route("gnb-1/00101", "imsi-001010000000042") }); n != 0 {
			t.Errorf("shard size %d: Route allocates %v times per call, want 0", shardSize, n)
		}
	}
}

// TestRouteDuringApply: readers race a stream of pushes that grow and
// shrink the replica set; every route must land inside some published
// snapshot's replica range (run under -race by `make vet`).
func TestRouteDuringApply(t *testing.T) {
	const widest, epochs = 8, 200
	r := NewRouter()
	if err := r.Apply(snapshot(1, 2, names(widest)...)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if idx, ok := r.Route(fmt.Sprintf("gnb-%d/00101", w), supiKey(i)); !ok || idx < 0 || idx >= widest {
					t.Errorf("Route = (%d, %v) during apply", idx, ok)
					return
				}
			}
		}(w)
	}
	for e := uint64(2); e <= epochs; e++ {
		if err := r.Apply(snapshot(e, int(e%3), names(1+int(e)%widest)...)); err != nil {
			t.Errorf("apply epoch %d: %v", e, err)
		}
	}
	close(stop)
	wg.Wait()
	if got := r.Epoch(); got != epochs {
		t.Fatalf("router epoch = %d, want %d", got, epochs)
	}
}
