package deploy

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"shield5g/internal/crypto/milenage"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/paka"
	"shield5g/internal/race"
	"shield5g/internal/ue"
)

// coreBytesPerUEBudget bounds what one registered UE adds to the live heap
// of a slice: its AMF context and NAS security context, the 80-byte AV
// record its first contact banks and its GUTI binding. It measures 392-395 B
// (go1.24, amd64); the bound is that plus 10 %. While the AV pool keyed its
// rings by SUPI strings it measured 416 B, and 432 B while the AMF held
// RAND and HXRES* as slices. While the latency
// recorders kept every sample and the AV pool banked whole response
// structs, it measured 565 B; while the eUDM cached a MILENAGE schedule
// per subscriber and an idle NAS context kept its AES schedule, 1 765 B.
const coreBytesPerUEBudget = 434

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
	if race.Enabled {
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
	if race.Enabled {
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

// replicaBytesPerSubscriberBudget bounds what a provisioned subscriber
// costs a four-replica slice beyond what it costs a one-replica slice. Only
// the owning replica's key store holds K, so the extra replicas add
// nothing per subscriber: the bound is the 16 B a map's growth steps can
// move a reading. While every replica held every key, the four-replica
// slice measured 538 B against 373 B at one replica (go1.24, amd64).
const replicaBytesPerSubscriberBudget = 16

// subscriberBytesBudget bounds what a provisioned subscriber costs a
// one-replica SGX slice. It measures 349 B (go1.24, amd64); the bound is
// that plus 10 %. While the UDR keyed its records by SUPI strings, it
// measured 373 B.
const subscriberBytesBudget = 384

// TestCoreBytesPerSubscriberReplica: what a provisioned subscriber costs an
// SGX slice — the UDR record under its SUPI value, the platform's one
// sealed file and the owning replica's key store entry under the SUPI
// string — stays within subscriberBytesBudget at one eUDM replica and is
// the same at four, within replicaBytesPerSubscriberBudget. Each
// reading is the live heap before and after provisioning 2 000
// subscribers. Skipped under -race like its sibling.
func TestCoreBytesPerSubscriberReplica(t *testing.T) {
	if race.Enabled {
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
	t.Logf("a provisioned subscriber costs %.0f B at 1 eUDM replica and %.0f B at 4", one, four)
	if one > subscriberBytesBudget {
		t.Errorf("a provisioned subscriber costs %.0f B at 1 eUDM replica, budget %d B", one, subscriberBytesBudget)
	}
	if four > one+replicaBytesPerSubscriberBudget {
		t.Errorf("4 eUDM replicas hold %.0f B per subscriber, 1 replica %.0f B: budget %d B more", four, one, replicaBytesPerSubscriberBudget)
	}
}

// Bounds on what one simulated device holds, each the measurement when it
// was set (344 B and 504 B) plus 25 %. Idle (built, not yet registered) a
// device is its 288 B struct, with K, OPc and the home-network key inline,
// and its 24 B SUPI string: 312 B (go1.24, amd64). Registered, it adds its
// 96 B NAS security context, which holds no K_NASenc schedule, its 48 B
// GUTI and the GUTI's two PLMN strings: 472 B. While the struct carried a
// routing-indicator string it was 320 B, and the device 344 B and 504 B;
// while a device kept a MILENAGE schedule for life and its K_NASenc
// schedule after registering, they measured 936 B and 1 608 B.
const (
	ueBytesIdleBudget       = 430
	ueBytesRegisteredBudget = 630
)

// TestUEBytesPerDevice: what the UE simulator holds per device, idle and
// registered (SGX, AV pool 8, binary SBI, 2 000 subscribers), stays within
// its budgets. Each reading is the live heap with the devices minus the
// live heap after dropping them: the core's state for a registered UE is
// in both readings, so the difference is the devices' alone. Skipped under
// -race like its siblings.
func TestUEBytesPerDevice(t *testing.T) {
	if race.Enabled {
		t.Skip("heap readings are not repeatable under -race")
	}
	const n = 2000
	ctx := context.Background()
	s := newSliceWith(t, SliceConfig{Isolation: paka.SGX, Seed: 38, AVPoolDepth: 8, BinarySBI: true})
	subs := provisionFootprint(t, s, n)
	perDevice := func(register bool) float64 {
		devices := make([]*ue.UE, n)
		for i, sub := range subs {
			devices[i] = sub.device(t, s)
			if !register {
				continue
			}
			if _, err := s.GNB.RegisterUE(ctx, devices[i]); err != nil {
				t.Fatalf("RegisterUE(%s): %v", devices[i].SUPIString(), err)
			}
		}
		with := liveHeap()
		runtime.KeepAlive(devices)
		devices = nil
		without := liveHeap()
		return (float64(with) - float64(without)) / n
	}
	idle, registered := perDevice(false), perDevice(true)
	if got := registeredUEs(s); got != n {
		t.Fatalf("%d registered UEs, want %d", got, n)
	}
	t.Logf("a device holds %.0f B idle and %.0f B registered", idle, registered)
	if idle > ueBytesIdleBudget {
		t.Errorf("an idle device holds %.0f B, budget %d B", idle, ueBytesIdleBudget)
	}
	if registered > ueBytesRegisteredBudget {
		t.Errorf("a registered device holds %.0f B, budget %d B", registered, ueBytesRegisteredBudget)
	}
}

// TestProvisionSubscriberAllocs holds provisioning a fresh subscriber on
// an SGX slice (UDR record, sealed file of K, the eUDM's key store, its
// attestation checked once before) to its measured allocation count: the
// median over 64 fresh SUPIs, each counted alone with the collector off,
// since the stores' maps grow on a few of them, and on which ones depends
// on their hash seeds. What remains: the UDR's record and the body its
// JSON decode compacts, the sealed file, and the closure that crosses into
// the eUDM. While every charge on a context without an account allocated
// a throwaway one it measured 15, while the key store and the sealed
// files were keyed by SUPI strings 9, and while the sealed file's
// additional data moved to the heap and each subscriber's initial SQN and
// AMF field were fresh slices, 7. Skipped under -race like its siblings.
func TestProvisionSubscriberAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	const n, want = 64, 4
	ctx := context.Background()
	s := newSliceWith(t, SliceConfig{Isolation: paka.SGX, Seed: 31})
	supis, keys := make([]suci.SUPI, n+1), make([][]byte, n+1)
	for i := range supis {
		supis[i] = suci.SUPI{MCC: "001", MNC: "01", MSIN: fmt.Sprintf("%010d", i+1)}
		keys[i] = make([]byte, milenage.KeyLen)
		binary.BigEndian.PutUint64(keys[i][8:], uint64(i)+1)
	}
	opc := make([]byte, milenage.OPLen)
	provision := func(i int) {
		if err := s.ProvisionSubscriber(ctx, supis[i], keys[i], opc); err != nil {
			t.Fatalf("ProvisionSubscriber: %v", err)
		}
	}
	provision(n) // the first key release checks the eUDM's evidence
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	counts := make([]uint64, n)
	var before, after runtime.MemStats
	for i := range counts {
		runtime.ReadMemStats(&before)
		provision(i)
		runtime.ReadMemStats(&after)
		counts[i] = after.Mallocs - before.Mallocs
	}
	slices.Sort(counts)
	if got := counts[n/2]; got != want {
		t.Errorf("provisioning a subscriber: %d allocs (median; %d-%d), want %d", got, counts[0], counts[n-1], want)
	}
}
