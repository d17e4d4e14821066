package gnb_test

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"shield5g/internal/crypto/milenage"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/deploy"
	"shield5g/internal/gnb"
	"shield5g/internal/paka"
	"shield5g/internal/simclock"
	"shield5g/internal/ue"
)

// newDeterministicUE provisions subscriber 5000+i with an index-derived key
// and returns the device. Unlike the provision helper it returns errors
// instead of failing the test, so it is safe to call from worker
// goroutines.
func newDeterministicUE(s *deploy.Slice, i int) (*ue.UE, error) {
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: fmt.Sprintf("%010d", 5000+i)}
	k := make([]byte, 16)
	k[0] = byte(i)
	k[1] = byte(i >> 8)
	k[15] = 0x5a
	opc, err := milenage.ComputeOPc(k, make([]byte, 16))
	if err != nil {
		return nil, err
	}
	return s.ProvisionDevice(context.Background(), supi, k, opc, nil)
}

// TestRegisterManyParallelSGX drives 200 concurrent registrations through
// a shielded (SGX) slice at parallelism 8 — the race-detector workout for
// the lock-striped core — and checks the per-registration enclave
// transition census stays at the paper's ~90 EENTER/EEXIT (Table III)
// under concurrency.
func TestRegisterManyParallelSGX(t *testing.T) {
	s, err := deploy.NewSlice(context.Background(), deploy.SliceConfig{
		Isolation: paka.SGX, Seed: 11,
	})
	if err != nil {
		t.Fatalf("NewSlice: %v", err)
	}
	defer s.Stop()

	// Warm the path first so the one-off costs (TLS handshakes, module
	// warm-up OCALLs) do not pollute the per-registration census.
	warm, err := newDeterministicUE(s, 9999)
	if err != nil {
		t.Fatalf("provision warm UE: %v", err)
	}
	if _, err := s.GNB.RegisterUE(context.Background(), warm); err != nil {
		t.Fatalf("warm RegisterUE: %v", err)
	}

	type snap struct{ eenter, eexit uint64 }
	before := make(map[paka.ModuleKind]snap)
	for k, m := range s.Modules {
		st := m.Stats()
		before[k] = snap{st.EENTER, st.EEXIT}
	}

	const n = 200
	result, err := s.GNB.RegisterManyWith(context.Background(), gnb.MassOptions{
		N:           n,
		NewUE:       func(i int) (*ue.UE, error) { return newDeterministicUE(s, i) },
		Parallelism: 8,
	})
	if err != nil {
		t.Fatalf("RegisterManyWith: %v", err)
	}
	if result.Registered != n || result.Failed != 0 {
		t.Fatalf("registered %d, failed %d (failures: %v)", result.Registered, result.Failed, result.FirstErrors)
	}
	if result.SetupTimes.N() != n {
		t.Fatalf("setup samples = %d, want %d", result.SetupTimes.N(), n)
	}
	if result.Parallelism != 8 {
		t.Fatalf("Parallelism = %d", result.Parallelism)
	}
	if result.Wall <= 0 || result.Virtual <= 0 {
		t.Fatalf("throughput window missing: wall=%v virtual=%v", result.Wall, result.Virtual)
	}

	// Each module serves one request per registration; the census is
	// Pre+Read+InHandler+Write+Post = 89 plus a 0–2 jig, so the mean
	// per-registration EENTER/EEXIT delta must sit tight around ~90.
	for k, m := range s.Modules {
		st := m.Stats()
		dEnter := float64(st.EENTER-before[k].eenter) / n
		dExit := float64(st.EEXIT-before[k].eexit) / n
		if dEnter < 84 || dEnter > 96 {
			t.Errorf("module %v: EENTER/registration = %.1f, want ~90", k, dEnter)
		}
		if dExit < 84 || dExit > 96 {
			t.Errorf("module %v: EEXIT/registration = %.1f, want ~90", k, dExit)
		}
	}
}

// TestRegisterManySequentialGolden pins the sequential driver's virtual
// time bit-for-bit: the quartiles below were captured from the
// pre-refactor back-to-back loop, and the refactored driver must reproduce
// them exactly for the same seeds. Any drift means the shared-jitter draw
// order changed and every calibrated figure in the paper reproduction
// shifts with it.
func TestRegisterManySequentialGolden(t *testing.T) {
	for _, tc := range []struct {
		iso         paka.Isolation
		seed        uint64
		n           int
		q1, med, q3 time.Duration
	}{
		{paka.Container, 7, 40, 46925605, 47846497, 48654482},
		{paka.SGX, 3, 20, 49182998, 49842987, 50722670},
	} {
		s, err := deploy.NewSlice(context.Background(), deploy.SliceConfig{
			Isolation: tc.iso, Seed: tc.seed,
		})
		if err != nil {
			t.Fatalf("NewSlice(%s): %v", tc.iso, err)
		}
		result, err := s.GNB.RegisterManyWith(context.Background(), gnb.MassOptions{N: tc.n, NewUE: func(i int) (*ue.UE, error) {
			return newDeterministicUE(s, i)
		}})
		if err != nil {
			t.Fatalf("RegisterManyWith(%s): %v", tc.iso, err)
		}
		if result.Registered != tc.n {
			t.Fatalf("%s: registered %d/%d (failures: %v)", tc.iso, result.Registered, tc.n, result.FirstErrors)
		}
		sum := result.SetupTimes.Summarize()
		if sum.Q1 != tc.q1 || sum.Median != tc.med || sum.Q3 != tc.q3 {
			t.Errorf("%s seed=%d: quartiles (%d, %d, %d), want golden (%d, %d, %d)",
				tc.iso, tc.seed, int64(sum.Q1), int64(sum.Median), int64(sum.Q3),
				int64(tc.q1), int64(tc.med), int64(tc.q3))
		}
		s.Stop()
	}
}

// TestRegisterManyParallelDeterministic checks the parallel driver's
// seed-reproducibility contract: worker w owns index stripe i%P==w and
// draws from the independent stream Jitter.Stream(w+1), so two runs with
// the same seed must produce exactly the same multiset of setup times no
// matter how the goroutines interleave. Identifiers allocated from shared
// counters (the AUSF's auth-context ID) are fixed width, so which request
// draws which value moves no message length and no modelled cycle.
func TestRegisterManyParallelDeterministic(t *testing.T) {
	const (
		n    = 64
		par  = 8
		seed = 5
	)
	run := func() []time.Duration {
		s, err := deploy.NewSlice(context.Background(), deploy.SliceConfig{
			Isolation: paka.Container, Seed: seed,
		})
		if err != nil {
			t.Fatalf("NewSlice: %v", err)
		}
		defer s.Stop()
		// Provision and warm sequentially so the one-off first-contact
		// costs are paid deterministically before the workers start.
		devices := make([]*ue.UE, n)
		for i := range devices {
			if devices[i], err = newDeterministicUE(s, i); err != nil {
				t.Fatalf("provision UE %d: %v", i, err)
			}
		}
		warm, err := newDeterministicUE(s, 9999)
		if err != nil {
			t.Fatalf("provision warm UE: %v", err)
		}
		if _, err := s.GNB.RegisterUE(context.Background(), warm); err != nil {
			t.Fatalf("warm RegisterUE: %v", err)
		}
		result, err := s.GNB.RegisterManyWith(context.Background(), gnb.MassOptions{
			N:           n,
			NewUE:       func(i int) (*ue.UE, error) { return devices[i], nil },
			Parallelism: par,
		})
		if err != nil {
			t.Fatalf("RegisterManyWith: %v", err)
		}
		if result.Registered != n {
			t.Fatalf("registered %d/%d (failures: %v)", result.Registered, n, result.FirstErrors)
		}
		samples := result.SetupTimes.Samples()
		sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
		return samples
	}

	first := run()
	second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("sample %d differs between same-seed parallel runs by %v: %v vs %v",
				i, first[i]-second[i], first[i], second[i])
		}
	}
}

// TestRegisterManyFailureAccounting checks that failed registrations are
// classified instead of being swallowed into a bare counter: the failure
// class tally matches Failed and the first error of each class is kept.
// It runs on a context carrying an account, over two lanes with a retry,
// and checks that the lanes pay for their rejects: each lane's Busy is
// what its UEs' attempts charged that account, failed attempts included,
// the lanes together are the account's whole charge, and under Container
// that is the clock's advance.
func TestRegisterManyFailureAccounting(t *testing.T) {
	s, err := deploy.NewSlice(context.Background(), deploy.SliceConfig{
		Isolation: paka.Container, Seed: 21, Replicas: 2,
	})
	if err != nil {
		t.Fatalf("NewSlice: %v", err)
	}
	defer s.Stop()

	// Provision outside the window: provisioning books on its own account.
	const n = 6
	devices := make([]*ue.UE, n)
	for i := range devices {
		if i%3 == 1 {
			// An unprovisioned device fails authentication.
			supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: fmt.Sprintf("%010d", 7000+i)}
			k := make([]byte, 16)
			devices[i], err = ue.New(ue.Config{
				SUPI: supi, K: k, OPc: k,
				HomeNetworkPublicKey: s.HomeNetworkKey.PublicKey(),
				HomeNetworkKeyID:     s.HomeNetworkKey.ID,
				Env:                  s.Env,
			})
		} else {
			devices[i], err = newDeterministicUE(s, i)
		}
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
	}

	// RegisterManyWith registers one UE at a time here, so what the account
	// was charged between two NewUE calls is one UE's attempts.
	var acct simclock.Account
	ctx := simclock.WithAccount(context.Background(), &acct)
	charged := make([]simclock.Cycles, n+1)
	clockStart := s.Env.Clock.Elapsed()
	result, err := s.GNB.RegisterManyWith(ctx, gnb.MassOptions{N: n, MaxAttempts: 2, NewUE: func(i int) (*ue.UE, error) {
		charged[i] = acct.Total()
		return devices[i], nil
	}})
	if err != nil {
		t.Fatalf("RegisterManyWith: %v", err)
	}
	charged[n] = acct.Total()
	clockAdvance := s.Env.Clock.Elapsed() - clockStart
	if result.Failed != 2 || result.Registered != 4 {
		t.Fatalf("registered %d, failed %d", result.Registered, result.Failed)
	}
	if result.Attempts != 8 {
		t.Errorf("Attempts = %d, want 8: one per registered UE, two per failed one", result.Attempts)
	}
	total := 0
	for class, count := range result.FailureCounts {
		total += count
		if result.FirstErrors[class] == nil {
			t.Errorf("class %q has no recorded first error", class)
		}
	}
	if total != result.Failed {
		t.Fatalf("failure classes sum to %d, Failed = %d", total, result.Failed)
	}

	lanes := make([]simclock.Cycles, len(result.ShardStats))
	for i, device := range devices {
		cost := charged[i+1] - charged[i]
		if cost == 0 {
			t.Errorf("UE %d charged the account nothing", i)
		}
		lanes[s.GNB.ShardOf(device.SUPIString())] += cost
	}
	var sum simclock.Cycles
	for i, st := range result.ShardStats {
		if want := s.Env.Model.Duration(lanes[i]); st.Busy != want {
			t.Errorf("lane %d busy %v, its UEs' attempts charged %v (%d registered, %d failed)", i, st.Busy, want, st.Registered, st.Failed)
		}
		sum += lanes[i]
	}
	if sum != acct.Total() {
		t.Errorf("lanes account for %d cycles, the account was charged %d", sum, acct.Total())
	}
	if acct.Total() != clockAdvance {
		t.Errorf("the account was charged %d cycles, the clock advanced %d: equal under Container isolation", acct.Total(), clockAdvance)
	}
}

// TestFleetVirtualIsLaneBusy pins what MassResult's fleet figures are made
// of, at every shard count: a lane's Busy is the sum of the request
// accounts of the attempts it served, FleetVirtual is the busiest lane's,
// and the lanes together account for at least the shared clock's advance —
// exactly it under Container isolation, more under SGX, whose platform
// charges enclave-side cycles to the request account and its own clock.
func TestFleetVirtualIsLaneBusy(t *testing.T) {
	for _, iso := range []paka.Isolation{paka.Container, paka.SGX} {
		for _, replicas := range []int{0, 1, 2, 4} {
			t.Run(fmt.Sprintf("%s/replicas=%d", iso, replicas), func(t *testing.T) {
				s, err := deploy.NewSlice(context.Background(), deploy.SliceConfig{
					Isolation: iso, Seed: 19, Replicas: replicas,
				})
				if err != nil {
					t.Fatalf("NewSlice: %v", err)
				}
				defer s.Stop()
				// Provision outside the window: provisioning advances the
				// clock on no request's account.
				const n = 24
				devices := make([]*ue.UE, n)
				for i := range devices {
					if devices[i], err = newDeterministicUE(s, i); err != nil {
						t.Fatalf("provision: %v", err)
					}
				}
				res, err := s.GNB.RegisterManyWith(context.Background(), gnb.MassOptions{
					N: n, NewUE: func(i int) (*ue.UE, error) { return devices[i], nil },
				})
				if err != nil || res.Registered != n {
					t.Fatalf("RegisterManyWith: %d/%d registered, %v", res.Registered, n, err)
				}
				if len(res.ShardStats) != len(s.Shards) {
					t.Fatalf("ShardStats = %d lanes for %d shards", len(res.ShardStats), len(s.Shards))
				}

				// Every attempt succeeded, so the lanes' accounts are the run's
				// setup times (each sample and each lane truncated to the
				// nanosecond).
				var lanes, busiest, setups time.Duration
				for i, st := range res.ShardStats {
					if (st.Registered > 0) != (st.Busy > 0) {
						t.Errorf("lane %d busy %v for %d registrations", i, st.Busy, st.Registered)
					}
					lanes += st.Busy
					busiest = max(busiest, st.Busy)
				}
				for _, d := range res.SetupTimes.Samples() {
					setups += d
				}
				if d := lanes - setups; d < 0 || d >= n {
					t.Errorf("lanes busy %v, the %d setup times sum to %v", lanes, res.SetupTimes.N(), setups)
				}
				if res.FleetVirtual != busiest {
					t.Errorf("FleetVirtual = %v, busiest lane = %v", res.FleetVirtual, busiest)
				}
				if want := float64(res.Registered) / res.FleetVirtual.Seconds(); res.FleetRegsPerSec != want {
					t.Errorf("FleetRegsPerSec = %v, want %v", res.FleetRegsPerSec, want)
				}
				// Per-lane rounding is the only slack under Container.
				slack := time.Duration(len(s.Shards))
				switch {
				case iso == paka.Container && (lanes < res.Virtual-slack || lanes > res.Virtual+slack):
					t.Errorf("lanes account for %v, the clock advanced %v: equal under Container isolation", lanes, res.Virtual)
				case iso == paka.SGX && lanes <= res.Virtual:
					t.Errorf("lanes account for %v, the clock advanced %v: enclave-side cycles are missing from the lanes", lanes, res.Virtual)
				}
			})
		}
	}
}
