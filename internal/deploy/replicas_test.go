package deploy

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"shield5g/internal/chaos"
	"shield5g/internal/gnb"
	"shield5g/internal/hmee/sev"
	"shield5g/internal/nf/nrf"
	"shield5g/internal/nf/udr"
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

// TestReplicaKeyStoresHoldTheirRoutedSUPIs: provisioning puts a
// subscriber's key in the eUDM of the one replica its SUPI routes to, so
// each replica's store lists exactly its routed SUPIs. The replicas run one
// enclave identity, so the platform holds one sealed file per subscriber,
// not one per replica. A restarted replica comes back empty and refills on
// first use, one SUPI at a time, from those files.
func TestReplicaKeyStoresHoldTheirRoutedSUPIs(t *testing.T) {
	s := newSliceWith(t, SliceConfig{Isolation: paka.SGX, Seed: 26, Replicas: 4})
	routed := make([][]string, len(s.Shards))
	devices := make(map[int]*ue.UE)
	var all []string
	for i := 0; i < 16; i++ {
		msin := fmt.Sprintf("%010d", 26001+i)
		device := provisionUE(t, s, msin)
		owner := s.GNB.ShardOf(supiString(msin))
		routed[owner] = append(routed[owner], supiString(msin))
		all = append(all, supiString(msin))
		devices[owner] = device
	}
	if len(devices) != len(s.Shards) {
		t.Fatalf("16 SUPIs routed to %d of %d replicas", len(devices), len(s.Shards))
	}
	identity := s.Reference(paka.EUDM)
	for _, shard := range s.Shards {
		m := shard.Modules[paka.EUDM]
		ev, err := m.Evidence([64]byte{})
		if err != nil || ev.Measurement != identity {
			t.Fatalf("shard %d eUDM attests %x (%v), want the slice's reference %x", shard.Index, ev.Measurement, err, identity)
		}
		if got, want := sortedNames(m.MemoryDump()), routed[shard.Index]; !slices.Equal(got, want) {
			t.Fatalf("shard %d eUDM holds keys for %v, want its routed SUPIs %v", shard.Index, got, want)
		}
		if got := sortedNames(m.Enclave().Backups()); !slices.Equal(got, all) {
			t.Fatalf("platform holds backups for %v, want one per provisioned SUPI %v", got, all)
		}
	}

	ctx := context.Background()
	if err := s.RestartShardModule(ctx, 3, paka.EUDM); err != nil {
		t.Fatalf("RestartShardModule(3): %v", err)
	}
	restarted := s.Shards[3].Modules[paka.EUDM]
	if got := sortedNames(restarted.MemoryDump()); len(got) != 0 {
		t.Fatalf("restarted replica holds keys for %v, want none", got)
	}
	device := devices[3]
	if _, err := s.GNB.RegisterUE(ctx, device); err != nil {
		t.Fatalf("RegisterUE on the restarted replica: %v", err)
	}
	if got, want := sortedNames(restarted.MemoryDump()), []string{device.SUPIString()}; !slices.Equal(got, want) {
		t.Fatalf("restarted replica refilled %v, want %v", got, want)
	}
	if n := s.Shards[3].UDM.Reprovisions(); n != 0 {
		t.Fatalf("Reprovisions = %d, want 0: the refill pulled K over the SBI", n)
	}
}

// movingMSIN returns the first MSIN from base whose SUPI routes to the last
// replica, the one SetRoutableReplicas(len-1) removes.
func movingMSIN(t *testing.T, s *Slice, base int) string {
	t.Helper()
	last := len(s.Shards) - 1
	for i := 0; i < 256; i++ {
		msin := fmt.Sprintf("%010d", base+i)
		if s.GNB.ShardOf(supiString(msin)) == last {
			return msin
		}
	}
	t.Fatalf("no MSIN from %d routes to shard %d", base, last)
	return ""
}

// holders lists the shards whose eUDM key store holds supi.
func holders(s *Slice, supi string) []int {
	var out []int
	for _, shard := range s.Shards {
		if _, ok := shard.Modules[paka.EUDM].MemoryDump()[supi]; ok {
			out = append(out, shard.Index)
		}
	}
	return out
}

// TestNoStaleKAfterMove: a SUPI that a rebalance moved leaves its key on
// the replica it visited. Re-provisioning it with a new key must evict that
// copy, so the device holding the new key registers wherever the SUPI is
// routed next — on every backend.
func TestNoStaleKAfterMove(t *testing.T) {
	for _, iso := range []paka.Isolation{paka.SGX, paka.SEV, paka.Container} {
		t.Run(iso.String(), func(t *testing.T) {
			ctx := context.Background()
			s := newSliceWith(t, SliceConfig{Isolation: iso, Seed: 41, Replicas: 4})
			msin := movingMSIN(t, s, 41000)
			supi := supiString(msin)
			k1 := []byte("long-term-key-01")
			device := provisionUEKey(t, s, msin, k1)
			if _, err := s.GNB.RegisterUE(ctx, device); err != nil {
				t.Fatalf("RegisterUE: %v", err)
			}
			if _, err := s.SetRoutableReplicas(3); err != nil {
				t.Fatalf("SetRoutableReplicas(3): %v", err)
			}
			visited := s.GNB.ShardOf(supi)
			if _, err := s.GNB.ReRegisterUE(ctx, device); err != nil {
				t.Fatalf("ReRegisterUE on shard %d: %v", visited, err)
			}
			if got, want := holders(s, supi), []int{visited, 3}; !slices.Equal(got, want) {
				t.Fatalf("after the move %s is held by shards %v, want %v", supi, got, want)
			}
			if _, err := s.SetRoutableReplicas(4); err != nil {
				t.Fatalf("SetRoutableReplicas(4): %v", err)
			}

			k2 := []byte("long-term-key-02")
			device = provisionUEKey(t, s, msin, k2)
			if got := holders(s, supi); !slices.Equal(got, []int{3}) {
				t.Fatalf("after re-provisioning %s is held by shards %v, want the owner 3 alone", supi, got)
			}
			if _, err := s.GNB.RegisterUE(ctx, device); err != nil {
				t.Fatalf("RegisterUE with the new key: %v", err)
			}
			// The visited replica serves the new key, not the one it saw.
			if _, err := s.SetRoutableReplicas(3); err != nil {
				t.Fatalf("SetRoutableReplicas(3): %v", err)
			}
			if _, err := s.GNB.RegisterUE(ctx, device); err != nil {
				t.Fatalf("RegisterUE with the new key on shard %d: %v", visited, err)
			}
			// A plain container's dump is its key store in plaintext.
			if got := s.Shards[visited].Modules[paka.EUDM].MemoryDump()[supi]; iso == paka.Container && !bytes.Equal(got, k2) {
				t.Fatalf("shard %d holds %x for %s, want the new key", visited, got, supi)
			}
		})
	}
}

// TestRebalanceReRegistersMovedUEs: 40 UEs register on four replicas, then
// re-register after a shrink to three and again after the fourth returns.
// No registration fails. Under SGX each moved UE's new replica opens the
// sealed file, so K never crosses the SBI: the UDR's full-record read fails
// throughout and nothing is re-provisioned. A guest replica gets K once
// per moved UE, on its first contact there; on the return trip the
// original owner still holds it.
func TestRebalanceReRegistersMovedUEs(t *testing.T) {
	for _, iso := range []paka.Isolation{paka.SGX, paka.SEV, paka.Container} {
		t.Run(iso.String(), func(t *testing.T) {
			ctx := context.Background()
			s := newSliceWith(t, SliceConfig{Isolation: iso, Seed: 43, Replicas: 4})
			gets := 0
			if iso == paka.SGX {
				srv, ok := s.Registry.Lookup(udr.ServiceName)
				if !ok {
					t.Fatal("no UDR server")
				}
				srv.HandleDual(udr.PathGet, func(context.Context, []byte) ([]byte, error) {
					gets++
					return nil, sbi.Problem(500, "Internal Server Error", "SYSTEM_FAILURE", "K requested over the SBI")
				})
			}
			devices := make([]*ue.UE, 40)
			for i := range devices {
				devices[i] = provisionUE(t, s, fmt.Sprintf("%010d", 43000+i))
				if _, err := s.GNB.RegisterUE(ctx, devices[i]); err != nil {
					t.Fatalf("RegisterUE of UE %d: %v", i, err)
				}
			}
			reRegisterAll := func(phase string) {
				t.Helper()
				for i, device := range devices {
					if _, err := s.GNB.ReRegisterUE(ctx, device); err != nil {
						t.Fatalf("%s: ReRegisterUE of UE %d on shard %d: %v", phase, i, s.GNB.ShardOf(device.SUPIString()), err)
					}
				}
			}
			moved := 0
			for _, device := range devices {
				if s.GNB.ShardOf(device.SUPIString()) == 3 {
					moved++
				}
			}
			if moved == 0 {
				t.Fatal("no UE routes to shard 3 — the shrink moves nothing")
			}
			if _, err := s.SetRoutableReplicas(3); err != nil {
				t.Fatalf("SetRoutableReplicas(3): %v", err)
			}
			reRegisterAll("shrunk to 3")
			if _, err := s.SetRoutableReplicas(4); err != nil {
				t.Fatalf("SetRoutableReplicas(4): %v", err)
			}
			reRegisterAll("restored to 4")

			var reprovisions uint64
			for _, shard := range s.Shards {
				reprovisions += shard.UDM.Reprovisions()
			}
			want := uint64(moved)
			if iso == paka.SGX {
				want = 0
			}
			if reprovisions != want || gets != 0 {
				t.Fatalf("%d re-provisions and %d full-record UDR reads for %d moved UEs, want %d and 0", reprovisions, gets, moved, want)
			}
		})
	}
}

// TestSEVReprovisionRefusesUnattestedReplica: a replica that never owned a
// SUPI is attested before the re-provisioning path gives it K. Shard 3's
// eUDM is replaced by the slice's recipe launched on another SEV host; a
// SUPI provisioned while shard 3 was not routable then moves there, and
// its registration fails without the substitute ever holding K.
func TestSEVReprovisionRefusesUnattestedReplica(t *testing.T) {
	ctx := context.Background()
	s := newSliceWith(t, SliceConfig{Isolation: paka.SEV, Seed: 44, Replicas: 4})
	msin := movingMSIN(t, s, 44000)
	if _, err := s.SetRoutableReplicas(3); err != nil {
		t.Fatalf("SetRoutableReplicas(3): %v", err)
	}
	device := provisionUE(t, s, msin)

	shard := s.Shards[3]
	shard.Modules[paka.EUDM].Stop()
	cfg := s.moduleConfig(paka.EUDM, 3, nil)
	cfg.SEVHost = sev.NewPlatform()
	substitute, err := paka.New(ctx, cfg)
	if err != nil {
		t.Fatalf("deploy substitute eUDM: %v", err)
	}
	t.Cleanup(substitute.Stop)
	shard.Modules[paka.EUDM] = substitute

	if _, err := s.SetRoutableReplicas(4); err != nil {
		t.Fatalf("SetRoutableReplicas(4): %v", err)
	}
	if _, err := s.GNB.RegisterUE(ctx, device); err == nil || !strings.Contains(err.Error(), "USER_NOT_FOUND") {
		t.Fatalf("registration through an unattested eUDM: err = %v, want the eUDM's USER_NOT_FOUND", err)
	}
	if dump := substitute.MemoryDump(); len(dump) != 0 {
		t.Fatalf("substitute eUDM holds %d key(s) after a refused attestation", len(dump))
	}
	if n := shard.UDM.Reprovisions(); n != 0 {
		t.Fatalf("Reprovisions = %d on shard 3, want 0", n)
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
