package paka

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/hmee"
	"shield5g/internal/hmee/sev"
	"shield5g/internal/simclock"
)

var noop = hmee.HandlerFunc(func(Exec) error { return nil })

// cross runs one connection phase (hmee.Open, hmee.Close) that carries
// no request.
func cross(ctx context.Context, c hmee.Crossing, ph hmee.Phases) error {
	_, err := c.Cross(ctx, ph, 0, 0, nil)
	return err
}

// forGuests runs f once per guest-process backend: the two are one runtime
// type told apart by a price list, so every contract below takes the list
// as its input.
func forGuests(t *testing.T, f func(t *testing.T, prices hmee.Prices)) {
	t.Run("container", func(t *testing.T) { f(t, hmee.ContainerPrices()) })
	t.Run("sev", func(t *testing.T) { f(t, sev.Prices()) })
}

// TestNativeRuntimeServeShutdownRace drives concurrent requests against a
// runtime being shut down (run under -race): every outcome must be either
// a clean Breakdown or hmee.ErrStopped, never a torn state or a data race.
func TestNativeRuntimeServeShutdownRace(t *testing.T) {
	env := costmodel.NewEnv(nil, 11)
	rt := hmee.NewProcess(env, hmee.ContainerPrices())

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := simclock.WithJitter(context.Background(), simclock.NewJitter(uint64(w)+1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := rt.Cross(ctx, hmee.OneShot, 40, 80, hmee.HandlerFunc(func(ex Exec) error {
					ex.Compute(10_000)
					return nil
				}))
				if err != nil && !errors.Is(err, hmee.ErrStopped) {
					t.Errorf("worker %d: unexpected error %v", w, err)
					return
				}
			}
		}(w)
	}
	rt.Shutdown(context.Background())
	close(stop)
	wg.Wait()

	if _, err := rt.Cross(context.Background(), hmee.OneShot, 10, 10, noop); !errors.Is(err, hmee.ErrStopped) {
		t.Fatalf("one-shot after Shutdown = %v, want hmee.ErrStopped", err)
	}
	if err := cross(context.Background(), rt, hmee.Open); !errors.Is(err, hmee.ErrStopped) {
		t.Fatalf("open after Shutdown = %v, want hmee.ErrStopped", err)
	}
	if _, err := rt.Cross(context.Background(), 0, 0, 0, noop); !errors.Is(err, hmee.ErrStopped) {
		t.Fatalf("maintenance after Shutdown = %v, want hmee.ErrStopped", err)
	}
}

// TestNativeRuntimeWarmupChargedOnce races P cold requests: exactly one
// of them must absorb the first-request warm-up (lazy library loading +
// TLS handshake), never zero, never more than one.
func TestNativeRuntimeWarmupChargedOnce(t *testing.T) {
	forGuests(t, warmupChargedOnce)
}

func warmupChargedOnce(t *testing.T, prices hmee.Prices) {
	env := costmodel.NewEnv(nil, 17)
	rt := hmee.NewProcess(env, prices)

	const workers = 8
	totals := make([]simclock.Cycles, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acct := &simclock.Account{}
			ctx := simclock.WithAccount(context.Background(), acct)
			ctx = simclock.WithJitter(ctx, simclock.NewJitter(uint64(w)+1))
			if _, err := rt.Cross(ctx, hmee.OneShot, 40, 80, noop); err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			totals[w] = acct.Total()
		}(w)
	}
	wg.Wait()

	// The warm-up block (2M cycles + the server TLS handshake) dwarfs the
	// jig variance (0–2 extra ~1.4k-cycle syscalls) between warm requests.
	sorted := append([]simclock.Cycles(nil), totals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	threshold := sorted[0] + prices.WarmupCycles/2
	var warmed int
	for _, total := range totals {
		if total > threshold {
			warmed++
		}
	}
	if warmed != 1 {
		t.Fatalf("warm-up charged to %d requests, want exactly 1 (totals %v)", warmed, totals)
	}
}

// TestNativeSessionMirrorsGramineContract checks the native keep-alive
// split: a session request pays only the per-request census, the
// Pre/handshake at open and Post at close — so the native/SGX comparison
// stays fair in batched mode, and so does the SEV/container one: a VM's
// exits stay with the request that arrives and departs, its connection
// machinery is charged once per session like everybody's.
func TestNativeSessionMirrorsGramineContract(t *testing.T) {
	forGuests(t, sessionMirrorsGramineContract)
}

func sessionMirrorsGramineContract(t *testing.T, prices hmee.Prices) {
	env := costmodel.NewEnv(nil, 23)
	rt := hmee.NewProcess(env, prices)

	// Warm the runtime outside the measured window.
	if _, err := rt.Cross(context.Background(), hmee.OneShot, 40, 80, noop); err != nil {
		t.Fatalf("warm: %v", err)
	}

	seed := uint64(5)
	measure := func(f func(ctx context.Context) error) simclock.Cycles {
		acct := &simclock.Account{}
		ctx := simclock.WithAccount(context.Background(), acct)
		ctx = simclock.WithJitter(ctx, simclock.NewJitter(seed))
		if err := f(ctx); err != nil {
			t.Fatalf("measure: %v", err)
		}
		return acct.Total()
	}

	full := measure(func(ctx context.Context) error {
		_, err := rt.Cross(ctx, hmee.OneShot, 40, 80, noop)
		return err
	})

	open := measure(func(ctx context.Context) error { return cross(ctx, rt, hmee.Open) })
	serve := measure(func(ctx context.Context) error {
		_, err := rt.Cross(ctx, hmee.Pipelined, 40, 80, noop)
		return err
	})
	closeCost := measure(func(ctx context.Context) error { return cross(ctx, rt, hmee.Close) })

	if serve >= full {
		t.Fatalf("session request (%d cycles) not cheaper than full request (%d)", serve, full)
	}
	if open == 0 || closeCost == 0 {
		t.Fatalf("open/close should charge the amortized machinery, got %d/%d", open, closeCost)
	}
	// Identical jitter streams make the split exact: the session path
	// re-arranges the warm full request's charges and adds exactly one
	// per-connection TLS handshake (which the warm full path never pays).
	if got, want := open+serve+closeCost, full+env.Model.TLSHandshakeServer; got != want {
		t.Fatalf("open+serve+close = %d, want full %d + handshake = %d", got, full, want)
	}

	// A batch of eight on one connection: the accept and teardown machinery
	// is charged once, not eight times, and the one handshake the warm
	// one-shot path never pays is charged once too. Each request draws its
	// wake-ups from the same seed on both sides, so the identity is exact.
	const batch = 8
	var oneShots, pipelined simclock.Cycles
	for seed = 100; seed < 100+batch; seed++ {
		oneShots += measure(func(ctx context.Context) error {
			_, err := rt.Cross(ctx, hmee.OneShot, 40, 80, noop)
			return err
		})
	}
	pipelined = measure(func(ctx context.Context) error { return cross(ctx, rt, hmee.Open) })
	for seed = 100; seed < 100+batch; seed++ {
		pipelined += measure(func(ctx context.Context) error {
			_, err := rt.Cross(ctx, hmee.Pipelined, 40, 80, noop)
			return err
		})
	}
	pipelined += measure(func(ctx context.Context) error { return cross(ctx, rt, hmee.Close) })
	sp, m := hmee.DefaultSyscallProfile(), env.Model
	machinery := simclock.Cycles(sp.Pre+sp.Post) * (m.SyscallNative + 32*m.CopyPerByte)
	if got, want := pipelined+(batch-1)*machinery, oneShots+m.TLSHandshakeServer; got != want {
		t.Fatalf("batch of %d: session %d + %d spared connections = %d, want one-shots %d + handshake = %d",
			batch, pipelined, batch-1, got, oneShots, want)
	}
}

// TestNativeDoBatchChargesCaller pins the account contract of the
// maintenance and batch (hmee.Entry) crossings.
func TestNativeDoBatchChargesCaller(t *testing.T) {
	forGuests(t, doBatchChargesCaller)
}

func doBatchChargesCaller(t *testing.T, prices hmee.Prices) {
	env := costmodel.NewEnv(nil, 29)
	rt := hmee.NewProcess(env, prices)
	work := hmee.HandlerFunc(func(ex Exec) error {
		for i := 0; i < 8; i++ {
			ex.Compute(50_000)
		}
		return nil
	})
	measure := func(ph hmee.Phases, in, out int) simclock.Cycles {
		acct := &simclock.Account{}
		if _, err := rt.Cross(simclock.WithAccount(context.Background(), acct), ph, in, out, work); err != nil {
			t.Fatal(err)
		}
		return acct.Total()
	}
	do := measure(0, 0, 0)
	batch := measure(hmee.Entry, 640, 1280)
	if do < 8*50_000 {
		t.Fatalf("maintenance charged %d cycles to caller, want ≥ %d", do, 8*50_000)
	}
	// A batch is maintenance plus the data movement: one IPC in, one out,
	// and no VM exit of its own under any price list.
	m := env.Model
	if want := do + 2*m.SyscallNative + (640+1280)*m.CopyPerByte; batch != want {
		t.Fatalf("batch charged %d cycles, want maintenance's %d + the IPC bytes = %d", batch, do, want)
	}
	if rt.VMExits() != 0 {
		t.Fatalf("maintenance crossings took %d VM exits", rt.VMExits())
	}
}
