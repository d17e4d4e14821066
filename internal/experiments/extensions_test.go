package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"shield5g/internal/paka"
)

func TestAblationShape(t *testing.T) {
	cfg := quick
	r, err := Ablation(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Ablation: %v", err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := make(map[string]namedRun)
	for _, row := range r.Rows {
		byName[row.name] = row
	}
	container := byName["container"]
	baseline := byName["sgx (paper baseline)"]
	noPreheat := byName["sgx no-preheat"]
	exitless := byName["sgx exitless"]
	userTCP := byName["sgx user-level TCP"]
	both := byName["sgx exitless+userTCP"]

	// Exitless eliminates transitions and cuts latency substantially.
	if exitless.enters != 0 {
		t.Errorf("exitless EENTER/req = %.1f, want 0", exitless.enters)
	}
	if exitless.stable.Median >= baseline.stable.Median {
		t.Error("exitless not faster than baseline")
	}
	// The census is the warm window's: a shorter window reads the same
	// EENTER/req, where one that folded the cold request's lazy-loading
	// OCALLs in would read higher the fewer warm requests dilute them.
	short, err := measureModule(context.Background(), paka.EUDM, cfg.Seed+977, paka.Config{Isolation: paka.SGX}, 2)
	if err != nil {
		t.Fatalf("measureModule: %v", err)
	}
	if d := short.enters - baseline.enters; d < -1 || d > 1 {
		t.Errorf("EENTER/req over 2 warm requests = %.1f, over %d = %.1f: the window includes the cold request", short.enters, cfg.Iterations, baseline.enters)
	}
	// User-level TCP cuts the syscall census and grows the TCB.
	if userTCP.enters >= baseline.enters {
		t.Error("user TCP did not reduce transitions")
	}
	if userTCP.tcb <= baseline.tcb {
		t.Error("user TCP did not grow the TCB")
	}
	// Combined, the module approaches container latency.
	if both.stable.Median >= exitless.stable.Median {
		t.Error("combined optimizations not fastest SGX config")
	}
	// No-preheat: cheaper load, slower operation.
	if noPreheat.load >= baseline.load {
		t.Error("no-preheat load not cheaper")
	}
	if noPreheat.stable.Median <= baseline.stable.Median {
		t.Error("no-preheat operation not slower")
	}
	// The container's effective TCB (host stack included) dwarfs the
	// enclave's.
	if container.tcb <= baseline.tcb {
		t.Error("container TCB not larger than enclave TCB")
	}

	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "exitless") {
		t.Fatal("render missing rows")
	}
}

func TestTEECompareShape(t *testing.T) {
	cfg := quick
	r, err := TEECompare(context.Background(), cfg)
	if err != nil {
		t.Fatalf("TEECompare: %v", err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	container, sgxRow, sevRow := r.Rows[0], r.Rows[1], r.Rows[2]

	// SEV avoids the transition tax: near-container latency.
	if float64(sevRow.stable.Median) > 1.2*float64(container.stable.Median) {
		t.Errorf("SEV stable %v not near container %v", sevRow.stable.Median, container.stable.Median)
	}
	if sevRow.enters != 0 {
		t.Errorf("SEV EENTER/req = %.1f", sevRow.enters)
	}
	// SGX pays latency but holds the smallest TCB.
	if sgxRow.stable.Median <= sevRow.stable.Median {
		t.Error("SGX not slower than SEV")
	}
	if sgxRow.tcb >= sevRow.tcb {
		t.Error("SGX TCB not below SEV TCB")
	}
	if sevRow.tcb >= container.tcb {
		t.Error("SEV TCB not below container effective TCB")
	}
	// Deployment time ordering: container < SEV << SGX.
	if !(container.load < sevRow.load && sevRow.load < sgxRow.load/3) {
		t.Errorf("load ordering violated: %v %v %v", container.load, sevRow.load, sgxRow.load)
	}

	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "sev") {
		t.Fatal("render missing SEV row")
	}
}

func TestTable3ExtendedSweep(t *testing.T) {
	cfg := quick
	cfg.MaxUEs = 5
	r, err := Table3(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Table3: %v", err)
	}
	if len(r.Rows) != 15 { // 3 modules x 5 UE counts
		t.Fatalf("rows = %d, want 15", len(r.Rows))
	}
	// EENTER grows by ~90 per extra UE at every depth of the sweep.
	for _, module := range []string{"eUDM", "eAUSF", "eAMF"} {
		byUE := make(map[int]uint64)
		for _, row := range r.Rows {
			if row.Module == module {
				byUE[row.UEs] = row.EENTER
			}
		}
		for ues := 2; ues <= 5; ues++ {
			delta := byUE[ues] - byUE[ues-1]
			if delta < 80 || delta > 100 {
				t.Errorf("%s EENTER delta at %d UEs = %d, want ~90", module, ues, delta)
			}
		}
	}
}

// TestMeasureModuleRefusesOverflowedWindow: a window one request longer
// than the module's latency recorders keep is an error, not a summary of
// its last paka.LatencyWindow requests.
func TestMeasureModuleRefusesOverflowedWindow(t *testing.T) {
	_, err := measureModule(context.Background(), paka.EAMF, quick.Seed, paka.Config{Isolation: paka.Container}, paka.LatencyWindow+1)
	if err == nil || !strings.Contains(err.Error(), "window kept") {
		t.Fatalf("measureModule over %d requests: err = %v, want a dropped-samples error", paka.LatencyWindow+1, err)
	}
}
