package gramine

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"shield5g/internal/hmee"
	"shield5g/internal/hmee/sgx"
	"shield5g/internal/simclock"
)

// The census contract: what every serve shape charges, on every crossing,
// cold and warm, under a fixed seed. testdata/census.golden was minted
// before the serve surface was collapsed onto one request description and
// is never regenerated alongside a refactor of instance.go — only the
// adapter block below follows renamed entry points. Regenerate (for a
// deliberate model change only) with CENSUS_UPDATE=1.

// --- adapter: the only part of this file that tracks the serve API ---

type censusBD = hmee.Breakdown

func censusWork(ex hmee.Exec) error {
	ex.Compute(150_000)
	ex.Touch(4096)
	return nil
}

func censusOneShot(i *Instance, ctx context.Context, in, out int) (censusBD, error) {
	return i.Cross(ctx, hmee.OneShot, in, out, hmee.HandlerFunc(censusWork))
}

func censusOpen(i *Instance, ctx context.Context) error { return cross(ctx, i, hmee.Open) }

func censusServe(i *Instance, ctx context.Context, in, out int) (censusBD, error) {
	return i.Cross(ctx, hmee.Pipelined, in, out, hmee.HandlerFunc(censusWork))
}

func censusClose(i *Instance, ctx context.Context) error { return cross(ctx, i, hmee.Close) }

func censusBatch(i *Instance, ctx context.Context, argBytes, retBytes, k int) error {
	_, err := i.Cross(ctx, hmee.Entry, argBytes, retBytes, hmee.HandlerFunc(func(ex hmee.Exec) error {
		for j := 0; j < k; j++ {
			if err := censusWork(ex); err != nil {
				return err
			}
		}
		return nil
	}))
	return err
}

// --- end adapter ---

const censusGolden = "testdata/census.golden"

// censusInstance launches a fresh instance for one crossing discipline.
// Every mode gets the same thread budget (process + helpers + a spare
// batch TCS + the ring dispatcher) so only the crossing differs.
func censusInstance(t *testing.T, crossing string) *Instance {
	t.Helper()
	m := DefaultManifest("/app/eudm-aka")
	m.MaxThreads = HelperThreads + 3
	switch crossing {
	case "exitless":
		m.Exitless = true
	case "ring":
		m.SwitchlessECalls = true
	}
	si, err := BuildShielded(testImage(), m, testSignKey(t))
	if err != nil {
		t.Fatalf("BuildShielded: %v", err)
	}
	p, err := sgx.NewPlatform(sgx.PlatformConfig{Seed: 21})
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	inst, err := Launch(context.Background(), p, si)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	t.Cleanup(func() { inst.Shutdown(context.Background()) })
	return inst
}

// censusRecorder renders one golden line per measured step.
type censusRecorder struct {
	t    *testing.T
	inst *Instance
	buf  *bytes.Buffer
	name string
	seed uint64
}

// step runs f under a dedicated account and a fresh seeded jitter stream
// and records the SGX counter delta, the cycles charged, and the Breakdown
// f reports. serverside is the served request's residence on the server
// path: what its account was charged, less the ring's submission charge,
// which precedes the path. A step that serves no request (open, close,
// batch) reports no Breakdown and 0.
func (r *censusRecorder) step(label string, f func(ctx context.Context) (censusBD, error)) {
	r.t.Helper()
	r.seed++
	acct := &simclock.Account{}
	ctx := simclock.WithAccount(context.Background(), acct)
	ctx = simclock.WithJitter(ctx, simclock.NewJitter(1000+r.seed))
	before, ringBefore := r.inst.Stats(), r.inst.RingStats()
	bd, err := f(ctx)
	if err != nil {
		r.t.Fatalf("%s %s: %v", r.name, label, err)
	}
	d := r.inst.Stats().Sub(before)
	var serverSide simclock.Cycles
	if bd != (censusBD{}) {
		serverSide = acct.Total() - r.ringCharge(ringBefore)
	}
	fmt.Fprintf(r.buf, "%s %s eenter=%d eexit=%d ecalls=%d ocalls=%d aex=%d cycles=%d functional=%d total=%d serverside=%d\n",
		r.name, label, d.EENTER, d.EEXIT, d.ECALLs, d.OCALLs, d.AEX,
		acct.Total(), bd.Functional, bd.Total, serverSide)
}

// ringCharge is what the ring charged for the submissions made since
// before (sgx.Ring.Submit): an enqueue each, plus a doorbell and its ECALL
// round trip for one that found the dispatcher parked, a poll share for
// the rest. It is zero off the ring.
func (r *censusRecorder) ringCharge(before sgx.RingStats) simclock.Cycles {
	st, m := r.inst.RingStats(), r.inst.platform.Env().Model
	n, bells := simclock.Cycles(st.Submitted-before.Submitted), simclock.Cycles(st.Doorbells-before.Doorbells)
	return n*m.SwitchlessEnqueueCycles + bells*(m.SwitchlessDoorbellCycles+m.ECALLRoundTrip()) + (n-bells)*m.SwitchlessPollCycles
}

func TestCensusContract(t *testing.T) {
	var got bytes.Buffer
	for _, crossing := range []string{"classic", "exitless", "ring"} {
		for _, shape := range []string{"oneshot", "session", "batch"} {
			for _, state := range []string{"first", "warm"} {
				inst := censusInstance(t, crossing)
				if crossing == "ring" != (inst.ring != nil) {
					t.Fatalf("%s instance: has a ring = %v", crossing, inst.ring != nil)
				}
				if state == "warm" {
					// Warm outside the measured window. A ring instance
					// warms through its ring, so it then idles past the spin
					// budget: the measured step finds the dispatcher parked.
					if _, err := censusOneShot(inst, context.Background(), 40, 80); err != nil {
						t.Fatalf("warm: %v", err)
					}
					if inst.ring != nil {
						env := inst.platform.Env()
						env.Clock.Advance(env.Model.SwitchlessSpinBudget())
					}
				}
				rec := &censusRecorder{t: t, inst: inst, buf: &got,
					name: shape + "/" + crossing + "/" + state}
				switch shape {
				case "oneshot":
					rec.step("serve", func(ctx context.Context) (censusBD, error) {
						return censusOneShot(inst, ctx, 40, 80)
					})
				case "session":
					rec.step("open", func(ctx context.Context) (censusBD, error) {
						return censusBD{}, censusOpen(inst, ctx)
					})
					for k := 1; k <= 3; k++ {
						rec.step(fmt.Sprintf("serve%d", k), func(ctx context.Context) (censusBD, error) {
							return censusServe(inst, ctx, 40*k, 80*k)
						})
					}
					rec.step("close", func(ctx context.Context) (censusBD, error) {
						return censusBD{}, censusClose(inst, ctx)
					})
				case "batch":
					rec.step("batch8", func(ctx context.Context) (censusBD, error) {
						return censusBD{}, censusBatch(inst, ctx, 8*40, 8*80, 8)
					})
				}
				if crossing == "ring" {
					if st := inst.RingStats(); st.Submitted == 0 {
						t.Fatalf("%s: ring crossing never touched the ring", rec.name)
					}
				}
			}
		}
	}

	if os.Getenv("CENSUS_UPDATE") != "" {
		if err := os.MkdirAll(filepath.Dir(censusGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(censusGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", censusGolden)
		return
	}
	want, err := os.ReadFile(censusGolden)
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
