package sbi_test

import (
	"context"
	"fmt"
	"testing"

	"shield5g"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
)

// TestPooledBodyConservation is the pool's conservation law on real
// executions: every body MarshalBody or MarshalBinary hands out is
// released exactly once, so when a run of registrations has returned
// nothing is outstanding — across both wire formats, the three process
// models, one and four replicas, and with faults injected (retries,
// dropped replies, breaker opens, module crash-restarts) as without. Each
// run includes one AUTS resynchronisation. The audit behind the count
// (sbi/audit.go) also panics on a second release and on a write to a
// released body, anywhere in these runs.
func TestPooledBodyConservation(t *testing.T) {
	type run struct {
		name string
		cfg  shield5g.SliceConfig
		mass shield5g.MassOptions
	}
	var runs []run
	for _, format := range []string{"json", "binary"} {
		for _, iso := range []shield5g.Isolation{paka.Container, paka.SGX, paka.SEV} {
			for _, replicas := range []int{1, 4} {
				for _, faults := range []bool{false, true} {
					r := run{
						name: fmt.Sprintf("%s/%s/replicas=%d/faults=%v", format, iso, replicas, faults),
						cfg:  shield5g.SliceConfig{Isolation: iso, Seed: 7, BinarySBI: format == "binary", Replicas: replicas},
						mass: shield5g.MassOptions{N: 40},
					}
					if faults {
						mix := shield5g.DefaultChaosMix(3, 0.3)
						r.cfg.Chaos = &mix
						r.mass.MaxAttempts = 5
					}
					runs = append(runs, r)
				}
			}
		}
	}
	// Every amortisation at once under four workers: keep-alive sessions,
	// the AV pool's 1 387-byte batch frames (which outgrow a pooled array),
	// and the switchless ring.
	runs = append(runs, run{
		name: "binary/sgx/parallel=4/batch=8/avpool=8/switchless",
		cfg: shield5g.SliceConfig{Isolation: paka.SGX, Seed: 7, BinarySBI: true,
			AVPoolDepth: 8, Switchless: true},
		mass: shield5g.MassOptions{N: 64, Parallelism: 4, BatchSize: 8},
	})

	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			ctx := context.Background()
			before := sbi.OutstandingBodies()
			tb, err := shield5g.NewTestbed(ctx, r.cfg)
			if err != nil {
				t.Fatalf("NewTestbed: %v", err)
			}
			defer tb.Close()

			r.mass.NewUE = func(i int) (*shield5g.UE, error) {
				sub, err := tb.AddSubscriber(ctx, make([]byte, 16), nil)
				if err != nil {
					return nil, err
				}
				if i == 1 {
					// A USIM far ahead of the network: the first challenge
					// is stale and the UE answers with AUTS.
					err = sub.UE.SetSQN([]byte{0x00, 0x00, 0x00, 0x01, 0x00, 0x00})
				}
				return sub.UE, err
			}
			res, err := tb.Slice.GNB.RegisterManyWith(ctx, r.mass)
			if err != nil {
				t.Fatalf("RegisterManyWith: %v", err)
			}
			if res.Registered != r.mass.N {
				t.Errorf("registered %d of %d: %v", res.Registered, r.mass.N, res.FirstErrors)
			}
			// A faulted run that never crash-restarts a module checks less
			// than it claims to.
			if r.cfg.Chaos != nil && tb.Slice.Chaos.Counts()["crash"] == 0 {
				t.Errorf("no crash among the injected faults %v", tb.Slice.Chaos.Counts())
			}
			// The law holds for failed registrations as for completed ones.
			if n := sbi.OutstandingBodies() - before; n != 0 {
				t.Errorf("%d pooled bodies handed out and never released, want 0", n)
			}
		})
	}
}
