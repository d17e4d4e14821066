package topology

import (
	"fmt"
	"sync"
	"testing"
)

func snapshot(epoch uint64, names ...string) *Snapshot {
	s := &Snapshot{Epoch: epoch}
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
		s := snapshot(1, names(tc.replicas)...)
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
	if got := snapshot(1, "only").Owner("any"); got != 0 {
		t.Fatalf("singleton owner = %d, want 0", got)
	}
	if got := snapshot(1).Owner("any"); got != -1 {
		t.Fatalf("empty snapshot owner = %d, want -1", got)
	}
}

// without returns a sealed copy of s minus the named replica; survivors
// keep their names and are re-indexed densely, as the builder does.
func without(s *Snapshot, name string) *Snapshot {
	out := &Snapshot{Epoch: s.Epoch + 1}
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
	full := snapshot(1, names(8)...)
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

// TestPlacementGolden pins SUPI -> replica name, so placement cannot
// drift between processes, architectures or Go versions: a UE's shard
// affinity outlives any one binary.
func TestPlacementGolden(t *testing.T) {
	s := snapshot(1, names(8)...)
	for _, tc := range []struct{ supi, want string }{
		{"imsi-001010000000001", "shard-5"},
		{"imsi-001010000000002", "shard-1"},
		{"imsi-001010000000003", "shard-0"},
		{"imsi-001017312345678", "shard-7"},
		{"imsi-208930000000007", "shard-3"},
	} {
		if got := s.Replicas[s.Owner(tc.supi)].Name; got != tc.want {
			t.Errorf("%q -> %s, want %s", tc.supi, got, tc.want)
		}
	}
}

// TestRouteIgnoresTenant: every tenant routes a SUPI to its owner over the
// whole replica set, at every replica count.
func TestRouteIgnoresTenant(t *testing.T) {
	for _, replicas := range []int{1, 2, 4, 8} {
		r := NewRouter()
		if err := r.Apply(snapshot(1, names(replicas)...)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 256; i++ {
			supi := supiKey(i)
			a, okA := r.Route("gnb-a/00101", supi)
			b, okB := r.Route("gnb-b/00102", supi)
			if want := r.Snapshot().Owner(supi); !okA || !okB || a != want || b != want {
				t.Fatalf("%d replicas: Route(a, %q) = (%d, %v), Route(b, …) = (%d, %v), want owner %d",
					replicas, supi, a, okA, b, okB, want)
			}
		}
	}
}

func TestRouterEpochProtocol(t *testing.T) {
	r := NewRouter()
	if _, ok := r.Route("t", "supi"); ok {
		t.Fatal("empty router claimed a route")
	}
	s1 := snapshot(1, names(2)...)
	if err := r.Apply(s1); err != nil {
		t.Fatalf("apply epoch 1: %v", err)
	}
	// Same epoch and a stale epoch both nack, leaving s1 as LKG.
	if err := r.Apply(snapshot(1, names(4)...)); err == nil {
		t.Fatal("replayed epoch 1 was acked")
	}
	stale := snapshot(0, names(4)...)
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
	s3 := snapshot(3, names(4)...)
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
	if err := r.Apply(snapshot(1, names(maxReplicas)...)); err != nil {
		t.Fatalf("apply %d replicas: %v", maxReplicas, err)
	}
	if err := r.Apply(snapshot(2, names(maxReplicas+1)...)); err == nil {
		t.Fatalf("%d replicas were acked; a snapshot holds %d", maxReplicas+1, maxReplicas)
	}
	if got := r.Epoch(); got != 1 {
		t.Fatalf("nack moved the router to epoch %d", got)
	}
	// Consulted directly, the nacked snapshot still names an owner rather
	// than faulting.
	if idx := snapshot(2, names(maxReplicas+1)...).Owner(supiKey(1)); idx < 0 || idx > maxReplicas {
		t.Fatalf("over-wide Owner = %d", idx)
	}
	if idx, ok := r.Route("t", supiKey(63)); !ok || idx < 0 || idx >= maxReplicas {
		t.Fatalf("Route over %d replicas = (%d, %v)", maxReplicas, idx, ok)
	}
}

func TestRouteAllocatesNothing(t *testing.T) {
	r := NewRouter()
	if err := r.Apply(snapshot(1, names(8)...)); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { r.Route("gnb-1/00101", "imsi-001010000000042") }); n != 0 {
		t.Errorf("Route allocates %v times per call, want 0", n)
	}
}

// TestRouteDuringApply: readers race a stream of pushes that grow and
// shrink the replica set; every route must land inside some published
// snapshot's replica range (run under -race by `make vet`).
func TestRouteDuringApply(t *testing.T) {
	const widest, epochs = 8, 200
	r := NewRouter()
	if err := r.Apply(snapshot(1, names(widest)...)); err != nil {
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
		if err := r.Apply(snapshot(e, names(1+int(e)%widest)...)); err != nil {
			t.Errorf("apply epoch %d: %v", e, err)
		}
	}
	close(stop)
	wg.Wait()
	if got := r.Epoch(); got != epochs {
		t.Fatalf("router epoch = %d, want %d", got, epochs)
	}
}
