package deploy

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"shield5g/internal/chaos"
	"shield5g/internal/gnb"
	"shield5g/internal/nf/nrf"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/ue"
)

func supiString(msin string) string { return "imsi-00101" + msin }

// sortedNames lists a key store view's region names in order.
func sortedNames(regions map[string][]byte) []string {
	names := make([]string, 0, len(regions))
	for name := range regions {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

func TestShardedRegistrationSpreadsAcrossShards(t *testing.T) {
	s := newSliceWith(t, SliceConfig{
		Isolation: paka.Container, Seed: 11, Replicas: 4,
	})
	if len(s.Shards) != 4 {
		t.Fatalf("Shards = %d, want 4", len(s.Shards))
	}

	n := 24
	res, err := s.GNB.RegisterManyWith(context.Background(), gnb.MassOptions{
		N: n,
		NewUE: func(i int) (*ue.UE, error) {
			return provisionUE(t, s, fmt.Sprintf("%010d", 7000+i)), nil
		},
	})
	if err != nil {
		t.Fatalf("RegisterManyWith: %v", err)
	}
	if res.Registered != n || res.Failed != 0 {
		t.Fatalf("Registered=%d Failed=%d %v", res.Registered, res.Failed, res.FirstErrors)
	}
	if len(res.ShardStats) != 4 {
		t.Fatalf("ShardStats = %d lanes, want 4", len(res.ShardStats))
	}
	busyLanes, total := 0, 0
	perAMF := 0
	for i, st := range res.ShardStats {
		total += st.Registered
		if st.Registered > 0 {
			busyLanes++
			if st.Busy <= 0 {
				t.Fatalf("lane %d served %d registrations with zero busy time", i, st.Registered)
			}
		}
		perAMF += s.Shards[i].AMF.RegisteredUEs()
	}
	if total != n {
		t.Fatalf("lane registrations sum to %d, want %d (no double counting)", total, n)
	}
	if perAMF != n {
		t.Fatalf("AMF replicas hold %d UEs, want %d", perAMF, n)
	}
	if busyLanes < 2 {
		t.Fatalf("only %d lanes served traffic; SUPI-affinity hashing should spread 24 UEs", busyLanes)
	}
	if res.FleetVirtual <= 0 || res.FleetVirtual >= res.Virtual {
		t.Fatalf("FleetVirtual = %v, want in (0, %v): makespan must beat the summed clock", res.FleetVirtual, res.Virtual)
	}
	// Routing is pure SUPI affinity: what the router says is where the
	// UE's context actually lives.
	for i := 0; i < n; i++ {
		supi := supiString(fmt.Sprintf("%010d", 7000+i))
		idx := s.GNB.ShardOf(supi)
		if idx < 0 || idx >= 4 {
			t.Fatalf("ShardOf(%s) = %d", supi, idx)
		}
	}
}

func TestShardedRegistrationSurvivesNRFStop(t *testing.T) {
	forReplicas(t, func(t *testing.T, replicas int) {
		s := newSliceWith(t, SliceConfig{Isolation: paka.Container, Seed: 5, Replicas: replicas})
		ctx := context.Background()

		// Provision everything up front, then take the NRF off the bus.
		devices := make([]*ue.UE, 12)
		for i := range devices {
			devices[i] = provisionUE(t, s, fmt.Sprintf("%010d", 7200+i))
		}
		s.StopNRF()
		if _, ok := s.Registry.Lookup(nrf.ServiceName); ok {
			t.Fatal("NRF still on the service bus after StopNRF")
		}

		// Registrations must complete on last-known-good routing and the
		// bindings each shard resolved at construction — the NRF is
		// strictly off the request path.
		for _, device := range devices {
			if _, err := s.GNB.RegisterUE(ctx, device); err != nil {
				t.Fatalf("RegisterUE with NRF stopped: %v", err)
			}
		}
		// Topology changes still propagate: the builder pushes in-process.
		// Deployment published epoch 1, so this push — over one shard a
		// republish of the same set — acks at epoch 2.
		res, err := s.SetRoutableReplicas(max(len(s.Shards)/2, 1))
		if err != nil {
			t.Fatalf("SetRoutableReplicas with NRF stopped: %v", err)
		}
		if res.Epoch != 2 || res.Acked != 1 || res.Nacked != 0 || s.Router.Epoch() != 2 {
			t.Fatalf("push result %+v, router epoch %d, want one ack at epoch 2", res, s.Router.Epoch())
		}
		if _, err := s.GNB.ReRegisterUE(ctx, devices[0]); err != nil {
			t.Fatalf("ReRegisterUE after rebalance with NRF stopped: %v", err)
		}
		if _, err := s.SetRoutableReplicas(len(s.Shards) + 1); err == nil {
			t.Fatal("routing over more replicas than the slice has was accepted")
		}
	})
}

// TestReRegistrationFollowsRebalance: TMSIs are unique per AMF replica
// only, so a UE that a snapshot moved must not have its GUTI resolved by
// the new owner's own TMSI table (that authenticates it as somebody else);
// the AMF pointer marks the GUTI as foreign and the identity procedure
// takes over.
func TestReRegistrationFollowsRebalance(t *testing.T) {
	s := newSliceWith(t, SliceConfig{
		Isolation: paka.Container, Seed: 5, Replicas: 4,
	})
	ctx := context.Background()
	devices := make([]*ue.UE, 12)
	before := make([]int, len(devices))
	for i := range devices {
		devices[i] = provisionUE(t, s, fmt.Sprintf("%010d", 7200+i))
		if _, err := s.GNB.RegisterUE(ctx, devices[i]); err != nil {
			t.Fatalf("RegisterUE: %v", err)
		}
		before[i] = s.GNB.ShardOf(devices[i].SUPIString())
	}
	if _, err := s.SetRoutableReplicas(2); err != nil {
		t.Fatalf("SetRoutableReplicas: %v", err)
	}
	moved := 0
	for i, device := range devices {
		after := s.GNB.ShardOf(device.SUPIString())
		if after != before[i] {
			moved++
		}
		if _, err := s.GNB.ReRegisterUE(ctx, device); err != nil {
			t.Fatalf("ReRegisterUE of UE %d (shard %d -> %d): %v", i, before[i], after, err)
		}
	}
	if moved == 0 {
		t.Fatal("no UE changed shard — test exercised nothing")
	}
}

// TestMidRunRebalance drives a mass registration and, midway through,
// publishes a topology snapshot that shrinks the routable replica set.
// Because every shard holds every subscriber key, the rebalance must cost
// zero failed registrations; and because the ring hashes replica names,
// SUPIs whose owner survived the shrink must not flap to another shard.
func TestMidRunRebalance(t *testing.T) {
	s := newSliceWith(t, SliceConfig{
		Isolation: paka.Container, Seed: 23, Replicas: 4,
	})
	n := 40
	msin := func(i int) string { return fmt.Sprintf("%010d", 7300+i) }

	before := make([]int, n)
	for i := 0; i < n; i++ {
		before[i] = s.GNB.ShardOf(supiString(msin(i)))
	}

	res, err := s.GNB.RegisterManyWith(context.Background(), gnb.MassOptions{
		N: n,
		NewUE: func(i int) (*ue.UE, error) {
			if i == n/2 {
				if _, err := s.SetRoutableReplicas(3); err != nil {
					return nil, err
				}
			}
			return provisionUE(t, s, msin(i)), nil
		},
	})
	if err != nil {
		t.Fatalf("RegisterManyWith: %v", err)
	}
	if res.Registered != n || res.Failed != 0 {
		t.Fatalf("rebalance cost registrations: Registered=%d Failed=%d %v",
			res.Registered, res.Failed, res.FirstErrors)
	}

	// Under the shrunk snapshot, only SUPIs owned by the removed shard 3
	// may have moved; everyone else keeps their shard (no flapping).
	moved := 0
	for i := 0; i < n; i++ {
		after := s.GNB.ShardOf(supiString(msin(i)))
		if before[i] == 3 {
			if after == 3 {
				t.Fatalf("SUPI %d still routes to the removed shard", i)
			}
			moved++
			continue
		}
		if after != before[i] {
			t.Fatalf("SUPI %d flapped %d -> %d though its owner survived", i, before[i], after)
		}
	}
	if moved == 0 {
		t.Fatal("no SUPI was owned by shard 3 — test exercised nothing")
	}

	// Restoring the replica set restores the exact original affinity:
	// consistent hashing is memoryless in the replica set.
	if _, err := s.SetRoutableReplicas(4); err != nil {
		t.Fatalf("SetRoutableReplicas(4): %v", err)
	}
	for i := 0; i < n; i++ {
		if got := s.GNB.ShardOf(supiString(msin(i))); got != before[i] {
			t.Fatalf("SUPI %d settled on %d, want original %d", i, got, before[i])
		}
	}
}

// TestShardedSameSeedDeterminism replays an identical replicas=4 run and
// requires bit-identical virtual-time results, lane by lane.
func TestShardedSameSeedDeterminism(t *testing.T) {
	run := func() *gnb.MassResult {
		s := newSliceWith(t, SliceConfig{
			Isolation: paka.Container, Seed: 31, Replicas: 4,
		})
		res, err := s.GNB.RegisterManyWith(context.Background(), gnb.MassOptions{
			N: 20,
			NewUE: func(i int) (*ue.UE, error) {
				return provisionUE(t, s, fmt.Sprintf("%010d", 7400+i)), nil
			},
		})
		if err != nil {
			t.Fatalf("RegisterManyWith: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.Registered != b.Registered || a.Failed != b.Failed {
		t.Fatalf("outcome diverged: %d/%d vs %d/%d", a.Registered, a.Failed, b.Registered, b.Failed)
	}
	if a.Virtual != b.Virtual || a.FleetVirtual != b.FleetVirtual {
		t.Fatalf("virtual time diverged: %v/%v vs %v/%v", a.Virtual, a.FleetVirtual, b.Virtual, b.FleetVirtual)
	}
	for i := range a.ShardStats {
		sa, sb := a.ShardStats[i], b.ShardStats[i]
		if sa.Registered != sb.Registered || sa.Busy != sb.Busy {
			t.Fatalf("lane %d diverged: (%d, %v) vs (%d, %v)", i, sa.Registered, sa.Busy, sb.Registered, sb.Busy)
		}
	}
}

func TestShardedCounterAggregation(t *testing.T) {
	forReplicas(t, func(t *testing.T, replicas int) {
		const depth = 4
		s := newSliceWith(t, SliceConfig{
			Isolation: paka.Container, Seed: 17, Replicas: replicas,
			AVPoolDepth: depth,
		})
		ctx := context.Background()
		n := 10
		supis := make([]string, n)
		// Prewarm must bank each SUPI's vectors on its owning replica only.
		want := make([]uint64, len(s.Shards))
		for i := 0; i < n; i++ {
			provisionUE(t, s, fmt.Sprintf("%010d", 7500+i))
			supis[i] = supiString(fmt.Sprintf("%010d", 7500+i))
			want[s.GNB.ShardOf(supis[i])] += depth
		}
		if err := s.PrewarmAVPool(ctx, supis); err != nil {
			t.Fatalf("PrewarmAVPool: %v", err)
		}
		perShard := shardPoolStats(s)
		fleet := s.AVPoolStats()
		if fleet.Prewarmed != uint64(n*depth) {
			t.Fatalf("fleet prewarmed %d vectors, want %d", fleet.Prewarmed, n*depth)
		}
		var sum uint64
		var pooled int
		for i, st := range perShard {
			sum += st.Prewarmed
			pooled += st.Pooled
			if st.Prewarmed != want[i] {
				t.Fatalf("shard %d prewarmed %d vectors, owns %d", i, st.Prewarmed, want[i])
			}
		}
		if sum != fleet.Prewarmed || pooled != fleet.Pooled {
			t.Fatalf("fleet view (%d, %d) != shard sum (%d, %d)", fleet.Prewarmed, fleet.Pooled, sum, pooled)
		}
	})
}

// TestShardClientsSpeakAsTheirShard: every SBI client of shard r — its
// VNFs' and their module clients' — carries shard r's caller identity, so
// a 503 names the replica that could not reach its module.
func TestShardClientsSpeakAsTheirShard(t *testing.T) {
	s := newSliceWith(t, SliceConfig{Isolation: paka.Container, Seed: 5, Replicas: 2})
	ctx := context.Background()
	for _, shard := range s.Shards {
		shard.Modules[paka.EAMF].Stop()
	}
	seen := make(map[int]bool)
	for i := 0; len(seen) < len(s.Shards) && i < 64; i++ {
		device := provisionUE(t, s, fmt.Sprintf("%010d", 7600+i))
		owner := s.GNB.ShardOf(device.SUPIString())
		if seen[owner] {
			continue
		}
		seen[owner] = true
		_, err := s.GNB.RegisterUE(ctx, device)
		want := [...]string{"amf cannot reach eamf-paka", "amf-r1 cannot reach eamf-paka-r1"}[owner]
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("shard %d with its eAMF down: err = %v, want %q", owner, err, want)
		}
	}
	if len(seen) != len(s.Shards) {
		t.Fatalf("64 SUPIs reached only %d of %d shards", len(seen), len(s.Shards))
	}
}

// TestReplicaKeyStoresShareTheSUPIString: full key replication puts a
// subscriber's key in every replica's eUDM, and each replica's store is
// keyed by the one SUPI string provisioning was given, not a copy per
// replica. The replicas run one enclave identity, so the platform holds one
// sealed backup per subscriber, not one per replica, and a restarted
// replica restores exactly the provisioned set from it.
func TestReplicaKeyStoresShareTheSUPIString(t *testing.T) {
	s := newSliceWith(t, SliceConfig{Isolation: paka.SGX, Seed: 26, Replicas: 4})
	msins := []string{"0000026001", "0000026002"}
	want := make([]string, len(msins))
	for i, msin := range msins {
		provisionUE(t, s, msin)
		want[i] = supiString(msin)
	}
	identity := s.Reference(paka.EUDM)
	for _, shard := range s.Shards {
		ev, err := shard.Modules[paka.EUDM].Evidence([64]byte{})
		if err != nil || ev.Measurement != identity {
			t.Fatalf("shard %d eUDM attests %x (%v), want the slice's reference %x", shard.Index, ev.Measurement, err, identity)
		}
		enc := shard.Modules[paka.EUDM].Enclave()
		if got := sortedNames(enc.Backups()); !slices.Equal(got, want) {
			t.Fatalf("platform holds backups for %v, want one per provisioned SUPI %v", got, want)
		}
	}
	if err := s.RestartShardModule(context.Background(), 3, paka.EUDM); err != nil {
		t.Fatalf("RestartShardModule(3): %v", err)
	}
	if got := sortedNames(s.Shards[3].Modules[paka.EUDM].MemoryDump()); !slices.Equal(got, want) {
		t.Fatalf("restarted replica holds keys for %v, want %v", got, want)
	}
	for _, msin := range msins {
		supi := supiString(msin)
		var data *byte
		for _, shard := range s.Shards {
			dump := shard.Modules[paka.EUDM].MemoryDump()
			if len(dump) != len(msins) {
				t.Fatalf("shard %d eUDM holds %d keys, want %d", shard.Index, len(dump), len(msins))
			}
			var key string
			for k := range dump {
				if k == supi {
					key = k
				}
			}
			switch {
			case key == "":
				t.Fatalf("shard %d eUDM holds no key for %s", shard.Index, supi)
			case data == nil:
				data = unsafe.StringData(key)
			case unsafe.StringData(key) != data:
				t.Errorf("shard %d keys %s by a string of its own", shard.Index, supi)
			}
		}
	}
}

// TestReplicaNamesAreStable pins every name a two-shard slice derives from
// its replica indices: the SBI services, the module services, and the NRF
// instance each VNF announces. They are wire content (NRF bodies carry
// them), so they must stay byte for byte what they are.
func TestReplicaNamesAreStable(t *testing.T) {
	s := newSliceWith(t, SliceConfig{Isolation: paka.Container, Seed: 5, Replicas: 2})
	ctx := context.Background()
	nrfc := nrf.NewClient(sbi.NewClient("test", s.Env, s.Registry))
	wantModules := [][3]string{
		{"eudm-paka", "eausf-paka", "eamf-paka"},
		{"eudm-paka-r1", "eausf-paka-r1", "eamf-paka-r1"},
	}
	wantVNFs := [][2]string{{"udm", "ausf"}, {"udm-r1", "ausf-r1"}}
	for r, shard := range s.Shards {
		if got := [2]string{shard.UDMService, shard.AUSFService}; got != wantVNFs[r] {
			t.Errorf("shard %d services = %v, want %v", r, got, wantVNFs[r])
		}
		for i, kind := range paka.Kinds() {
			if got := shard.Modules[kind].ServiceName(); got != wantModules[r][i] {
				t.Errorf("shard %d %s service = %q, want %q", r, kind, got, wantModules[r][i])
			}
		}
	}
	for _, tc := range []struct {
		nfType, service, instance string
	}{
		{"UDM", "udm", "udm-1"}, {"UDM", "udm-r1", "udm-r1-1"},
		{"AUSF", "ausf", "ausf-1"}, {"AUSF", "ausf-r1", "ausf-r1-1"},
		{"AMF", "amf", "amf-1"},
	} {
		p, err := nrfc.Discover(ctx, tc.nfType, tc.service, false)
		if err != nil || p.InstanceID != tc.instance {
			t.Errorf("Discover(%s, %s) = %q, %v; want instance %q", tc.nfType, tc.service, p.InstanceID, err, tc.instance)
		}
	}
}

// TestCrashOnReplicaServiceRestartsThatShard: the injector knows each
// module by its derived service name, so a crash drawn on "eudm-paka-r1"
// restarts shard 1's eUDM and leaves shard 0's alone.
func TestCrashOnReplicaServiceRestartsThatShard(t *testing.T) {
	mix := chaos.Config{Seed: 7, CrashRate: 1}
	s := newSliceWith(t, SliceConfig{Isolation: paka.Container, Seed: 5, Replicas: 2, Chaos: &mix})
	inv := s.Chaos.Wrap(sbi.NewClient("test", s.Env, s.Registry))
	err := inv.Post(context.Background(), "eudm-paka-r1", paka.PathUDMGenerateAV, &paka.UDMGenerateAVRequest{}, nil)
	if !sbi.HasCause(err, sbi.CauseUnreachable) {
		t.Fatalf("crash draw on eudm-paka-r1: err = %v, want 503 %s", err, sbi.CauseUnreachable)
	}
	for r, want := range []uint64{0, 1} {
		if got := s.Shards[r].Modules[paka.EUDM].Restarts(); got != want {
			t.Errorf("shard %d eUDM Restarts = %d, want %d", r, got, want)
		}
	}
}
