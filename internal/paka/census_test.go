package paka

import (
	"context"
	"crypto/ed25519"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/hmee"
	"shield5g/internal/hmee/sev"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/simclock"
)

// censusCounter is a price surface that charges nothing and counts: the
// census hmee.Walk issues for a phase set, free of any backend.
type censusCounter struct {
	jitter   *simclock.Jitter
	syscalls int
	entries  int
}

func (c *censusCounter) Warmup()                       {}
func (c *censusCounter) Syscalls(n, _, _ int)          { c.syscalls += n }
func (c *censusCounter) ServerCompute(simclock.Cycles) {}
func (c *censusCounter) Stage(int)                     {}
func (c *censusCounter) Entry(int, int)                { c.entries++ }
func (c *censusCounter) Jitter() *simclock.Jitter      { return c.jitter }
func (c *censusCounter) Exec() hmee.Exec               { return nil } // noop ignores it

// censusBackend is one backend under count: its runtime and how many
// syscalls it has served so far.
type censusBackend struct {
	name    string
	rt      Runtime
	served  func() int
	entryAs int // syscalls this backend prices one Entry in
}

// sgxCensusBackend boots the eUDM image in an enclave; the census is the
// enclave's OCALL counter, whichever way the OCALLs cross.
func sgxCensusBackend(t *testing.T, name string, userTCP bool) censusBackend {
	t.Helper()
	p, err := sgx.NewPlatform(sgx.PlatformConfig{Seed: 31})
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	_, signKey, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	inst, err := launchSGX(context.Background(), Config{
		Kind: EUDM, Platform: p, SignKey: signKey, ReserveBatchTCS: true, UserLevelTCP: userTCP,
		Exitless: name == "sgx-exitless", Switchless: name == "sgx-ring",
	}, Profiles()[EUDM])
	if err != nil {
		t.Fatalf("launch %s: %v", name, err)
	}
	return censusBackend{name: name, rt: inst,
		served: func() int { return int(inst.Stats().OCALLs) }}
}

// guestCensusBackend runs a guest process on a cost model where a syscall
// costs one cycle and nothing else costs anything, so the cycles it charges
// — less its VM exits at their list price — are the syscalls it served.
func guestCensusBackend(name string, prices hmee.Prices) censusBackend {
	env := costmodel.NewEnv(&costmodel.Model{FrequencyHz: simclock.DefaultFrequencyHz, SyscallNative: 1}, 31)
	p := hmee.NewProcess(env, prices)
	return censusBackend{name: name, rt: p, entryAs: 2,
		served: func() int {
			return int(env.Clock.Elapsed() - simclock.Cycles(p.VMExits())*prices.VMExitCycles)
		}}
}

// TestSameCensusDifferentPrice is the sentence the backend comparison
// rests on, executed: for every serve shape, every backend serves exactly
// the syscalls one free-standing walk of that shape issues — the container
// and the confidential VM at kernel price, the enclave as classic OCALLs,
// exitless handoffs or ring-side handoffs. Only the price differs. (An
// Entry's bytes are priced, not counted: two IPC syscalls in a guest,
// shielded buffers in an enclave.)
func TestSameCensusDifferentPrice(t *testing.T) {
	type profile struct {
		name    string
		sp      hmee.SyscallProfile
		userTCP bool
	}
	for _, prof := range []profile{
		{"default", hmee.DefaultSyscallProfile(), false},
		{"usertcp", hmee.UserTCPSyscallProfile(), true},
	} {
		backends := []censusBackend{
			sgxCensusBackend(t, "sgx-classic", prof.userTCP),
			sgxCensusBackend(t, "sgx-exitless", prof.userTCP),
			sgxCensusBackend(t, "sgx-ring", prof.userTCP),
		}
		if !prof.userTCP {
			// Nothing links a user-level TCP stack into a guest process: it
			// always serves the default census.
			backends = append(backends,
				guestCensusBackend("container", hmee.ContainerPrices()),
				guestCensusBackend("sev", sev.Prices()))
		}
		for _, b := range backends {
			t.Run(prof.name+"/"+b.name, func(t *testing.T) {
				t.Cleanup(b.rt.Shutdown)
				// Warm outside the count: lazy loading is a price, not census.
				if _, err := b.rt.Cross(context.Background(), hmee.OneShot, 40, 80, noop); err != nil {
					t.Fatalf("warm: %v", err)
				}
				seed := uint64(0)
				step := func(shape string, ph hmee.Phases, in, out int, f func(ctx context.Context) error) {
					t.Helper()
					seed++
					want := &censusCounter{jitter: simclock.NewJitter(seed)}
					if _, err := hmee.Walk(want, costmodel.Default(), prof.sp, &simclock.Account{}, ph, in, out, noop); err != nil {
						t.Fatalf("%s: reference walk: %v", shape, err)
					}
					ctx := simclock.WithAccount(context.Background(), &simclock.Account{})
					ctx = simclock.WithJitter(ctx, simclock.NewJitter(seed))
					before := b.served()
					if err := f(ctx); err != nil {
						t.Fatalf("%s: %v", shape, err)
					}
					if got, want := b.served()-before, want.syscalls+want.entries*b.entryAs; got != want {
						t.Errorf("%s served %d syscalls, the walk issues %d", shape, got, want)
					}
				}
				step("oneshot", hmee.OneShot.Warm(), 40, 80, func(ctx context.Context) error {
					_, err := b.rt.Cross(ctx, hmee.OneShot, 40, 80, noop)
					return err
				})
				step("open", hmee.Open.Warm(), 0, 0, func(ctx context.Context) error { return cross(ctx, b.rt, hmee.Open) })
				for k := 1; k <= 3; k++ {
					step("pipelined", hmee.Pipelined, 40*k, 80*k, func(ctx context.Context) error {
						_, err := b.rt.Cross(ctx, hmee.Pipelined, 40*k, 80*k, noop)
						return err
					})
				}
				step("close", hmee.Close, 0, 0, func(ctx context.Context) error { return cross(ctx, b.rt, hmee.Close) })
				step("batch", hmee.Entry, 320, 640, func(ctx context.Context) error {
					_, err := b.rt.Cross(ctx, hmee.Entry, 320, 640, noop)
					return err
				})
				step("maintenance", 0, 0, 0, func(ctx context.Context) error {
					_, err := b.rt.Cross(ctx, 0, 0, 0, noop)
					return err
				})
			})
		}
	}
}
