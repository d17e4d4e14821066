package deploy

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"shield5g/internal/crypto/milenage"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/paka"
	"shield5g/internal/ue"
)

// coreBytesPerUEBudget bounds what one registered UE adds to the live heap
// of a slice: its AMF context and NAS security context, the 80-byte AV
// record its first contact banks and its GUTI binding. It measures 419 B
// (go1.24, amd64; 432 B while the AMF held RAND and HXRES* as slices); the
// bound is 432 B plus 25 %. While the latency
// recorders kept every sample and the AV pool banked whole response
// structs, it measured 565 B; while the eUDM cached a MILENAGE schedule
// per subscriber and an idle NAS context kept its AES schedule, 1 765 B.
const coreBytesPerUEBudget = 540

// liveHeap is the heap still reachable after two forced collections: the
// first finishes any cycle in progress and empties sync.Pools into their
// victim caches, the second drops those.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCoreBytesPerRegisteredUE: what a slice retains per registered UE
// (SGX, AV pool 8, binary SBI, 2 000 subscribers) stays within
// coreBytesPerUEBudget. The first reading is taken after provisioning and
// before any device exists; the devices are built, registered and dropped
// before the second, so the difference is the core's alone. Heap readings
// are not repeatable under the race detector, so the test skips there
// (make ci runs it once more without -race).
func TestCoreBytesPerRegisteredUE(t *testing.T) {
	if raceEnabled {
		t.Skip("heap readings are not repeatable under -race")
	}
	const n = 2000
	ctx := context.Background()
	s := newSliceWith(t, SliceConfig{Isolation: paka.SGX, Seed: 27, AVPoolDepth: 8, BinarySBI: true})
	subs := provisionFootprint(t, s, n)

	before := liveHeap()
	devices := make([]*ue.UE, n)
	for i, sub := range subs {
		devices[i] = sub.device(t, s)
	}
	for _, d := range devices {
		if _, err := s.GNB.RegisterUE(ctx, d); err != nil {
			t.Fatalf("RegisterUE(%s): %v", d.SUPIString(), err)
		}
	}
	if got := registeredUEs(s); got != n {
		t.Fatalf("%d registered UEs, want %d", got, n)
	}
	devices = nil
	after := liveHeap()

	perUE := (float64(after) - float64(before)) / n
	t.Logf("core retains %.0f B per registered UE (live heap %d -> %d B over %d UEs)", perUE, before, after, n)
	if perUE > coreBytesPerUEBudget {
		t.Errorf("core retains %.0f B per registered UE, budget %d B", perUE, coreBytesPerUEBudget)
	}
}

// bytesPerReRegBudget bounds what one GUTI re-registration adds to the
// live heap of a slice whose UEs are all registered: nothing the core
// keeps grows with the registrations it serves. It measures 0 B (go1.24,
// amd64). While every latency recorder kept every sample, it measured
// 34 B.
const bytesPerReRegBudget = 2

// TestCoreHeapFlatUnderReRegistration: re-registering registered UEs does
// not grow the core (SGX, AV pool 8, binary SBI, 2 000 UEs). Before the
// first reading the UEs attach and re-register 17 times: 36 000
// registrations, far past every latency window (paka.LatencyWindow), and
// enough churn for the AMF's and AUSF's maps, whose keys (RAN UE id, TMSI,
// auth context) change on every registration, to settle at the size their
// deleted slots need (the slice grows by about 4 B per re-registration
// over the first 16 rounds, then stops). Eight more rounds follow, one AV
// pool refill cycle at depth 8, so each SUPI's ring is in the same state
// at both readings. Skipped under -race like its siblings.
func TestCoreHeapFlatUnderReRegistration(t *testing.T) {
	if raceEnabled {
		t.Skip("heap readings are not repeatable under -race")
	}
	const n, warm, rounds = 2000, 17, 8
	if 2*n <= paka.LatencyWindow {
		t.Fatalf("%d registrations do not fill a %d-sample window", 2*n, paka.LatencyWindow)
	}
	ctx := context.Background()
	s := newSliceWith(t, SliceConfig{Isolation: paka.SGX, Seed: 35, AVPoolDepth: 8, BinarySBI: true})
	devices := make([]*ue.UE, n)
	for i, sub := range provisionFootprint(t, s, n) {
		devices[i] = sub.device(t, s)
		if _, err := s.GNB.RegisterUE(ctx, devices[i]); err != nil {
			t.Fatalf("RegisterUE(%s): %v", devices[i].SUPIString(), err)
		}
	}
	reRegister := func() {
		for _, d := range devices {
			if _, err := s.GNB.ReRegisterUE(ctx, d); err != nil {
				t.Fatalf("ReRegisterUE(%s): %v", d.SUPIString(), err)
			}
		}
	}
	for r := 0; r < warm; r++ {
		reRegister()
	}

	before := liveHeap()
	for r := 0; r < rounds; r++ {
		reRegister()
	}
	after := liveHeap()
	runtime.KeepAlive(devices) // both readings hold the devices
	if got := registeredUEs(s); got != n {
		t.Fatalf("%d registered UEs, want %d", got, n)
	}

	perReg := (float64(after) - float64(before)) / (rounds * n)
	t.Logf("core grows %.2f B per re-registration (live heap %d -> %d B over %d re-registrations)", perReg, before, after, rounds*n)
	if perReg > bytesPerReRegBudget {
		t.Errorf("core grows %.2f B per re-registration, budget %d B", perReg, bytesPerReRegBudget)
	}
}

// footprintSubscriber is one subscriber of a heap measurement: its
// identity and the credentials its device is built from.
type footprintSubscriber struct {
	supi   suci.SUPI
	k, opc []byte
}

// provisionFootprint provisions n subscribers, each with its own K, on s.
func provisionFootprint(t *testing.T, s *Slice, n int) []footprintSubscriber {
	t.Helper()
	subs := make([]footprintSubscriber, n)
	for i := range subs {
		sub := &subs[i]
		sub.supi = suci.SUPI{MCC: "001", MNC: "01", MSIN: fmt.Sprintf("%010d", i+1)}
		sub.k = make([]byte, milenage.KeyLen)
		binary.BigEndian.PutUint64(sub.k[8:], uint64(i)+1)
		opc, err := milenage.ComputeOPc(sub.k, make([]byte, milenage.OPLen))
		if err != nil {
			t.Fatalf("ComputeOPc: %v", err)
		}
		sub.opc = opc
		if err := s.ProvisionSubscriber(context.Background(), sub.supi, sub.k, sub.opc); err != nil {
			t.Fatalf("ProvisionSubscriber: %v", err)
		}
	}
	return subs
}

// device builds sub's UE for s's home network.
func (sub footprintSubscriber) device(t *testing.T, s *Slice) *ue.UE {
	t.Helper()
	d, err := ue.New(ue.Config{
		SUPI: sub.supi, K: sub.k, OPc: sub.opc,
		HomeNetworkPublicKey: s.HomeNetworkKey.PublicKey(),
		HomeNetworkKeyID:     s.HomeNetworkKey.ID,
		Env:                  s.Env,
	})
	if err != nil {
		t.Fatalf("ue.New: %v", err)
	}
	return d
}

// bytesPerReplicaBudget bounds what one more eUDM replica adds to the live
// heap per provisioned subscriber: its runtime key store's entry (the SUPI
// string it shares and K inline). It measures 55 B (go1.24, amd64); the
// bound is that plus 25 %. While every replica kept its own sealed backup
// and an index of its own, it measured 233 B.
const bytesPerReplicaBudget = 69

// TestCoreBytesPerSubscriberReplica: what a provisioned subscriber costs an
// SGX slice, split into what the slice holds once (UDR record, SUPI
// string, the platform's one sealed backup) and what each eUDM replica adds,
// from the live heap before and after provisioning 2 000 subscribers at 1
// and at 4 replicas. The per-replica share stays within
// bytesPerReplicaBudget. Skipped under -race like its sibling.
func TestCoreBytesPerSubscriberReplica(t *testing.T) {
	if raceEnabled {
		t.Skip("heap readings are not repeatable under -race")
	}
	const n = 2000
	ctx := context.Background()
	supis := make([]suci.SUPI, n)
	keys := make([][]byte, n)
	for i := range supis {
		supis[i] = suci.SUPI{MCC: "001", MNC: "01", MSIN: fmt.Sprintf("%010d", i+1)}
		keys[i] = make([]byte, milenage.KeyLen)
		binary.BigEndian.PutUint64(keys[i][8:], uint64(i)+1)
	}
	opc := make([]byte, milenage.OPLen)
	perSubscriber := func(replicas int) float64 {
		s := newSliceWith(t, SliceConfig{Isolation: paka.SGX, Seed: 30, Replicas: replicas})
		before := liveHeap()
		for i, supi := range supis {
			if err := s.ProvisionSubscriber(ctx, supi, keys[i], opc); err != nil {
				t.Fatalf("ProvisionSubscriber: %v", err)
			}
		}
		after := liveHeap()
		if got := s.UDR.SubscriberCount(); got != n {
			t.Fatalf("UDR holds %d subscribers, want %d", got, n)
		}
		return (float64(after) - float64(before)) / n
	}
	one, four := perSubscriber(1), perSubscriber(4)
	perReplica := (four - one) / 3
	t.Logf("a provisioned subscriber costs %.0f B once plus %.0f B per eUDM replica (%.0f B at 1 replica, %.0f B at 4)", one-perReplica, perReplica, one, four)
	if perReplica > bytesPerReplicaBudget {
		t.Errorf("each eUDM replica adds %.0f B per subscriber, budget %d B", perReplica, bytesPerReplicaBudget)
	}
}
