package shield5g_test

import (
	"context"
	"testing"

	"shield5g"
	"shield5g/internal/experiments"
	"shield5g/internal/paka"
	"shield5g/internal/race"
)

// reRegAllocBudget is the DESIGN.md section-9 ceiling on heap allocations
// per GUTI re-registration on the full fast path (SGX, AV pool 8, binary
// SBI, keep-alive batch 8): the network side and the UE simulator
// together, counted inside an experiments.AllocWindow over a whole AV pool
// cycle. It measures 10.56-10.59 (go1.24, amd64); the bound is that plus
// 10 %. While an AV pool refill allocated its request scratch, the served
// pairs' storage and a heap copy of K, and the NAS codec copied the UE's
// security capabilities to the heap, it measured 12.55-12.57 (budget
// 13.8). While every NAS PDU was a fresh allocation with no release point,
// each activation allocated a NAS security context, and the GUTI was
// decoded and stored behind fresh pointers, it measured 23.64 (budget
// 26.0); while the AMF kept the AUSF request each AKA run started from on the
// heap, it measured 24.64; while typed SBI clients returned heap responses and the P-AKA client did
// new(Resp) per call, it measured 30.2; while the SBI decoded SUPIs and auth-context IDs as strings, the AUSF
// kept each session behind a pointer, and the AMF's ABBA and the gNB's
// PLMN were built per registration, it measured 38.3; while the NAS codec
// called its messages through the nas.Message interface, so that every
// message built or decoded reached the heap, 51.3; before the gNB and the AMF stamped the request on pooled
// simclock.Calls, 55.3 (the registration's account and three contexts),
// and before the SBI carried the AKA values fixed-width and the handlers
// filled pooled responses, 72.4.
const reRegAllocBudget = 11.6

// TestReRegistrationAllocBudget: fast-path GUTI re-registrations of 64
// attached UEs stay inside reRegAllocBudget. The window is eight rounds,
// one pool refill per UE at depth 8, so the refill's share is counted
// exactly once per eight re-registrations, as a long run sees it. Skipped
// under -race like the other allocation budgets.
func TestReRegistrationAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	const n, rounds = 64, 8
	ctx := context.Background()
	tb, err := shield5g.NewTestbed(ctx, shield5g.SliceConfig{
		Isolation:   shield5g.SGX,
		Seed:        1,
		AVPoolDepth: 8,
		BinarySBI:   true,
	})
	if err != nil {
		t.Fatalf("NewTestbed: %v", err)
	}
	defer tb.Close()

	devices := make([]*shield5g.UE, n)
	for i := range devices {
		sub, err := tb.AddSubscriber(ctx, subscriberKey, nil)
		if err != nil {
			t.Fatalf("AddSubscriber(%d): %v", i, err)
		}
		if _, err := tb.Register(ctx, sub); err != nil {
			t.Fatalf("Register(%d): %v", i, err)
		}
		devices[i] = sub.UE
	}
	lane := paka.WithConnection(ctx, 1, 8)
	reRegister := func() error {
		for _, d := range devices {
			if _, err := tb.Slice.GNB.ReRegisterUE(lane, d); err != nil {
				return err
			}
		}
		return nil
	}
	// One warm round: every UE's first refill and the keep-alive session.
	if err := reRegister(); err != nil {
		t.Fatalf("warm ReRegisterUE: %v", err)
	}

	mallocs, _, err := experiments.AllocWindow(func() error {
		for r := 0; r < rounds; r++ {
			if err := reRegister(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ReRegisterUE: %v", err)
	}
	perReg := float64(mallocs) / (n * rounds)
	t.Logf("%.2f allocs per fast-path GUTI re-registration (%d over %d), budget %.1f", perReg, mallocs, n*rounds, reRegAllocBudget)
	if perReg > reRegAllocBudget {
		t.Errorf("%.2f allocs per fast-path GUTI re-registration, budget %.1f", perReg, reRegAllocBudget)
	}
}
