package paka

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/hmee"
	"shield5g/internal/hmee/sev"
	"shield5g/internal/simclock"
)

// The guest-side census contract, the sibling of gramine's
// testdata/census.golden: what every serve shape charges in a plain
// container, cold and warm, and what a one-shot request charges in a
// confidential VM, under a fixed seed. testdata/guest_census.golden was
// minted while the container and the VM each still walked the server path
// in a copy of their own and is never regenerated alongside a refactor of
// either — only the adapter block below follows renamed entry points.
// Regenerate (for a deliberate model change only) with CENSUS_UPDATE=1.
//
// The two SEV lines were moved once, by hand, when the VM's copy of the
// walk was deleted: it had skipped the in-handler syscall its siblings
// charge, so cycles, L_F, L_T and the residence each rose by exactly that
// syscall (SyscallNative + 16 bytes copied = 1 416 cycles).

// --- adapter: the only part of this file that tracks the runtime API ---

type guestRuntime = Runtime

// guestLaunch starts one guest backend and returns it with its VM-exit
// counter (always zero for a container).
func guestLaunch(t *testing.T, backend string, env *costmodel.Env) (guestRuntime, func() uint64) {
	t.Helper()
	switch backend {
	case "container":
		p := hmee.NewProcess(env, hmee.ContainerPrices())
		return p, p.VMExits
	case "sev":
		m, err := sev.NewPlatform().Launch(context.Background(), env, sev.Config{Name: "eudm-vm", AppImageBytes: 2_620_000_000})
		if err != nil {
			t.Fatalf("launch sev: %v", err)
		}
		return m, m.VMExits
	}
	t.Fatalf("unknown guest backend %q", backend)
	return nil, nil
}

func guestOneShot(rt guestRuntime, ctx context.Context, in, out int, h Handler) (Breakdown, error) {
	return rt.Cross(ctx, hmee.OneShot, in, out, h)
}

func guestOpen(rt guestRuntime, ctx context.Context) error { return cross(ctx, rt, hmee.Open) }

func guestServe(rt guestRuntime, ctx context.Context, in, out int, h Handler) (Breakdown, error) {
	return rt.Cross(ctx, hmee.Pipelined, in, out, h)
}

func guestClose(rt guestRuntime, ctx context.Context) error { return cross(ctx, rt, hmee.Close) }

// --- end adapter ---

const guestGolden = "testdata/guest_census.golden"

func guestWork(ex hmee.Exec) error {
	ex.Compute(150_000)
	ex.Touch(4096)
	return nil
}

// guestRecorder renders one golden line per measured step.
type guestRecorder struct {
	t       *testing.T
	vmExits func() uint64
	buf     *bytes.Buffer
	name    string
	seed    uint64
}

// step runs f under a dedicated account and a fresh seeded jitter stream
// and records the cycles charged, the Breakdown f reports and the VM exits
// it caused.
func (r *guestRecorder) step(label string, f func(ctx context.Context) (Breakdown, error)) {
	r.t.Helper()
	r.seed++
	acct := &simclock.Account{}
	ctx := simclock.WithAccount(context.Background(), acct)
	ctx = simclock.WithJitter(ctx, simclock.NewJitter(1000+r.seed))
	before := r.vmExits()
	bd, err := f(ctx)
	if err != nil {
		r.t.Fatalf("%s %s: %v", r.name, label, err)
	}
	fmt.Fprintf(r.buf, "%s %s cycles=%d functional=%d total=%d serverside=%d vmexits=%d\n",
		r.name, label, acct.Total(), bd.Functional, bd.Total, bd.ServerSide, r.vmExits()-before)
}

func TestGuestCensusContract(t *testing.T) {
	work := hmee.HandlerFunc(guestWork)
	var got bytes.Buffer
	for _, backend := range []string{"container", "sev"} {
		shapes := []string{"oneshot", "session", "batch"}
		if backend == "sev" {
			// Minted when a VM session was a pass-through to the one-shot
			// and a VM batch moved no bytes, so only the one-shot had a
			// census to pin; runtime_test.go holds the session and batch
			// contracts for both price lists.
			shapes = shapes[:1]
		}
		for _, shape := range shapes {
			for _, state := range []string{"first", "warm"} {
				rt, vmExits := guestLaunch(t, backend, costmodel.NewEnv(nil, 21))
				t.Cleanup(rt.Shutdown)
				if state == "warm" {
					// Warm outside the measured window.
					if _, err := guestOneShot(rt, context.Background(), 40, 80, work); err != nil {
						t.Fatalf("warm: %v", err)
					}
				}
				rec := &guestRecorder{t: t, vmExits: vmExits, buf: &got,
					name: shape + "/" + backend + "/" + state}
				switch shape {
				case "oneshot":
					rec.step("serve", func(ctx context.Context) (Breakdown, error) {
						return guestOneShot(rt, ctx, 40, 80, work)
					})
				case "session":
					rec.step("open", func(ctx context.Context) (Breakdown, error) {
						return Breakdown{}, guestOpen(rt, ctx)
					})
					for k := 1; k <= 3; k++ {
						rec.step(fmt.Sprintf("serve%d", k), func(ctx context.Context) (Breakdown, error) {
							return guestServe(rt, ctx, 40*k, 80*k, work)
						})
					}
					rec.step("close", func(ctx context.Context) (Breakdown, error) {
						return Breakdown{}, guestClose(rt, ctx)
					})
				case "batch":
					rec.step("batch8", func(ctx context.Context) (Breakdown, error) {
						// The golden was minted when a batch reported no windows.
						_, err := rt.Cross(ctx, hmee.Entry, 8*40, 8*80, hmee.HandlerFunc(func(ex hmee.Exec) error {
							for j := 0; j < 8; j++ {
								if err := guestWork(ex); err != nil {
									return err
								}
							}
							return nil
						}))
						return Breakdown{}, err
					})
				}
			}
		}
	}

	if os.Getenv("CENSUS_UPDATE") != "" {
		if err := os.MkdirAll(filepath.Dir(guestGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(guestGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", guestGolden)
		return
	}
	want, err := os.ReadFile(guestGolden)
	if err != nil {
		t.Fatalf("read golden (mint with CENSUS_UPDATE=1): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for k := 0; k < len(gl) && k < len(wl); k++ {
			if !bytes.Equal(gl[k], wl[k]) {
				t.Errorf("census line %d:\n got %s\nwant %s", k+1, gl[k], wl[k])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("census has %d lines, golden %d", len(gl), len(wl))
		}
	}
}
