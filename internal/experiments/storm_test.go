package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"shield5g/internal/sbi"
)

// TestStormLimiterProtectsEmergencyClass is the acceptance check of the
// signaling-storm sweep: at 10x overload the limiter must at least double
// emergency-class goodput and lower its p99 versus the limiter-off
// baseline, at factor 1 it must cost under 5% median setup, and the
// limiter-on overload point must replay deterministically.
func TestStormLimiterProtectsEmergencyClass(t *testing.T) {
	cfg := Config{Seed: 7, Iterations: 240}
	r, err := Storm(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Storm: %v", err)
	}
	if len(r.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(r.Points))
	}

	// Limiter off at overload: nothing sheds, nothing drops, nothing
	// throttles — the machinery is deployed but disarmed.
	off := r.Points[0]
	if off.admissionDrops != 0 || off.meterSheds != 0 || off.resilience.Throttled != 0 {
		t.Errorf("limiter-off point not inert: drops=%d sheds=%d throttled=%d",
			off.admissionDrops, off.meterSheds, off.resilience.Throttled)
	}

	// Limiter on at overload: every mechanism engages.
	on := r.Points[1]
	if on.admissionDrops == 0 {
		t.Error("limiter-on point saw no admission drops (buckets never engaged)")
	}
	if on.resilience.Throttled == 0 {
		t.Error("limiter-on point saw no client throttling (OCI never honoured)")
	}
	em := sbi.PriorityEmergency
	if on.storm.Class[em].Shed != 0 {
		t.Errorf("emergency class shed %d registrations; it must never shed", on.storm.Class[em].Shed)
	}

	if r.EmergencyGoodputRatio < 2 {
		t.Errorf("emergency goodput ratio = %.2f, want >= 2", r.EmergencyGoodputRatio)
	}
	if !r.EmergencyP99Improved {
		t.Error("limiter did not improve emergency p99 at overload")
	}
	if r.OverheadPct >= 5 {
		t.Errorf("limiter overhead at factor 1 = %.2f%%, want < 5%%", r.OverheadPct)
	}
	if !r.Deterministic {
		t.Error("same-seed replay diverged: determinism contract broken")
	}

	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Signaling-storm survival") {
		t.Fatal("render missing header")
	}
	buf.Reset()
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if !strings.Contains(buf.String(), "goodput_per_sec") {
		t.Fatal("CSV missing header")
	}
}
