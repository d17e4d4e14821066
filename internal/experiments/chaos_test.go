package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestChaosConvergesAndIsDeterministic is the acceptance check of the
// fault-injection sweep: at seeded fault rates up to 10% the mass
// registration converges to >=99% success through retries, the rate-0
// point sees no faults at all and costs under 5% more virtual time than
// the same run without the injector and resilience layer deployed, and
// replaying the harshest point with the same seeds reproduces
// bit-identical outcome counts.
func TestChaosConvergesAndIsDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Iterations: 40}
	r, err := Chaos(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Chaos: %v", err)
	}
	if len(r.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(r.Points))
	}

	zero := r.Points[0]
	if zero.rate != 0 || len(zero.injected) != 0 || zero.mass.Attempts != r.UEs {
		t.Errorf("rate-0 point not clean: injected=%v attempts=%d (want %d)",
			zero.injected, zero.mass.Attempts, r.UEs)
	}
	if zero.mass.Registered != r.UEs {
		t.Errorf("rate-0 registered = %d, want %d", zero.mass.Registered, r.UEs)
	}

	// Both runs are sequential, so this is a deterministic virtual figure.
	if r.Rate0OverheadPct >= 5 {
		t.Errorf("armed injector + resilience layer at fault rate 0 cost %.2f%% of virtual time, want < 5%%", r.Rate0OverheadPct)
	}

	for _, p := range r.Points {
		if p.successPct() < 99 {
			t.Errorf("rate %.2f success = %.1f%%, want >= 99%%", p.rate, p.successPct())
		}
	}

	last := r.Points[len(r.Points)-1]
	if len(last.injected) == 0 {
		t.Error("10%% point injected no faults")
	}
	if last.recovered() == 0 {
		t.Error("10%% point recovered no failed attempts (retries never engaged)")
	}
	// The fault schedule is deterministic for this seed: it includes
	// whole-module crashes, so the crash/redeploy/re-attest path must
	// have run — and every affected UE still registered (checked above).
	if last.restarts == 0 {
		t.Error("10%% point saw no module restarts (crash faults never engaged)")
	}
	if !r.Deterministic {
		t.Error("same-seed replay diverged: determinism contract broken")
	}

	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Fault injection") {
		t.Fatal("render missing header")
	}
	buf.Reset()
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if !strings.Contains(buf.String(), "success_pct") {
		t.Fatal("CSV missing header")
	}
}
