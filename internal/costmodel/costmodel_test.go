package costmodel

import (
	"testing"
	"testing/quick"
	"time"

	"shield5g/internal/simclock"
)

func TestDefaultTransitionCostsInCitedRange(t *testing.T) {
	m := Default()
	// The paper cites 10k-18k cycles per enclave context switch.
	rt := m.OCALLRoundTrip()
	if rt < 10_000 || rt > 18_000 {
		t.Fatalf("OCALL round trip = %d cycles, want within cited 10k-18k", rt)
	}
	if got := m.ECALLRoundTrip(); got != m.EENTER+m.EEXIT {
		t.Fatalf("ECALLRoundTrip = %d", got)
	}
	if got := m.AEXRoundTrip(); got != m.AEX+m.ERESUME {
		t.Fatalf("AEXRoundTrip = %d", got)
	}
}

func TestShieldCost(t *testing.T) {
	m := Default()
	if got := m.ShieldCost(100); got != 100*m.ShieldPerByte {
		t.Fatalf("ShieldCost(100) = %d", got)
	}
	if got := m.ShieldCost(-5); got != 0 {
		t.Fatalf("ShieldCost(-5) = %d, want 0", got)
	}
}

func TestTLSRecordCostMonotonic(t *testing.T) {
	m := Default()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return m.TLSRecordCost(x) <= m.TLSRecordCost(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHTTPCostNegativeClamped(t *testing.T) {
	m := Default()
	if got := m.HTTPCost(-1); got != m.HTTPParseBase {
		t.Fatalf("HTTPCost(-1) = %d, want base %d", got, m.HTTPParseBase)
	}
}

func TestPagesFor(t *testing.T) {
	tests := []struct {
		bytes uint64
		want  uint64
	}{
		{0, 0}, {1, 1}, {4096, 1}, {4097, 2}, {512 << 20, 131072},
	}
	for _, tt := range tests {
		if got := PagesFor(tt.bytes); got != tt.want {
			t.Errorf("PagesFor(%d) = %d, want %d", tt.bytes, got, tt.want)
		}
	}
}

func TestDurationCyclesRoundTrip(t *testing.T) {
	m := Default()
	if got := m.Duration(m.Cycles(time.Millisecond)); got != time.Millisecond {
		t.Fatalf("round trip = %v", got)
	}
}

func TestEnclaveBuildTimeNearOneMinute(t *testing.T) {
	// Sanity-check the Fig. 7 calibration: building and preheating a
	// 512 MiB enclave plus hashing a GSC image must land near a minute.
	m := Default()
	pages := simclock.Cycles(PagesFor(512 << 20))
	build := pages * m.EnclaveBuildPerPage
	preheat := pages * m.PreheatPerPage
	hash := simclock.Cycles(2_600_000_000) * m.TrustedFileHashPerByte
	total := m.Duration(build + preheat + hash)
	if total < 45*time.Second || total > 70*time.Second {
		t.Fatalf("modelled enclave load = %v, want ~1 minute", total)
	}
}
