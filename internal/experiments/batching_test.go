package experiments

import (
	"bytes"
	"context"
	"testing"

	"shield5g/internal/race"
)

// TestBatchingAmortizes is the acceptance check of the boundary-
// amortization sweep: batch-8 keep-alive sessions cut the transition
// census per registration by at least 40 % against the connection-per-
// request baseline, deeper batches cut more, nothing fails, the unbatched
// path stays inside UnbatchedAllocBudget, and a same-seed replay renders
// the identical table.
func TestBatchingAmortizes(t *testing.T) {
	cfg := Config{Seed: 1, Iterations: 24}
	r, err := Batching(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Batching: %v", err)
	}
	byLabel := make(map[string]batchPoint, len(r.Points))
	for _, p := range r.Points {
		byLabel[p.label] = p
		if p.mass.Registered != r.UEs || p.mass.Failed != 0 {
			t.Errorf("%s: Registered=%d Failed=%d, want %d/0", p.label, p.mass.Registered, p.mass.Failed, r.UEs)
		}
	}
	base, k4, k8, k16 := byLabel["unbatched"], byLabel["keepalive-4"], byLabel["keepalive-8"], byLabel["keepalive-16"]
	t.Logf("transitions/reg: unbatched %.1f, keepalive-8 %.1f (-%.1f%%); unbatched allocs/reg %.1f",
		base.transPerReg(), k8.transPerReg(), k8.reduction*100, base.perReg(float64(base.mallocs)))
	if base.transPerReg() < 400 {
		t.Errorf("unbatched census = %.1f transitions/reg; three ~90-EENTER modules should pay ~540", base.transPerReg())
	}
	if k8.reduction < 0.40 {
		t.Errorf("batch-8 keep-alive cut transitions/registration by %.1f%% (%.1f -> %.1f), want >= 40%%",
			k8.reduction*100, base.transPerReg(), k8.transPerReg())
	}
	if !(k4.transPerReg() < base.transPerReg() && k8.transPerReg() < k4.transPerReg() && k16.transPerReg() < k8.transPerReg()) {
		t.Errorf("transitions/reg not monotone in batch depth: unbatched %.1f, 4: %.1f, 8: %.1f, 16: %.1f",
			base.transPerReg(), k4.transPerReg(), k8.transPerReg(), k16.transPerReg())
	}
	if both := byLabel["keepalive-8+avpool-8"]; both.transPerReg() >= k8.transPerReg() {
		t.Errorf("AV pool on top of batch-8 pays %.1f transitions/reg, batch-8 alone %.1f", both.transPerReg(), k8.transPerReg())
	}
	if allocs := base.perReg(float64(base.mallocs)); !race.Enabled && allocs > UnbatchedAllocBudget {
		t.Errorf("unbatched path allocates %.1f allocs/registration, budget %v", allocs, UnbatchedAllocBudget)
	}

	replay, err := Batching(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Batching replay: %v", err)
	}
	var first, second bytes.Buffer
	r.Render(&first)
	replay.Render(&second)
	if first.String() != second.String() {
		t.Errorf("same-seed replay rendered a different table:\n%s\nvs\n%s", first.String(), second.String())
	}
}
