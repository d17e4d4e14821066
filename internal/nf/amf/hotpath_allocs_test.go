//go:build !race

package amf_test

import (
	"runtime/debug"
	"testing"
)

// TestHotPathAllocs holds one GUTI re-registration of an attached UE —
// the AMF's NAS handlers, completeAuth among them, the AUSF, UDM and
// modules behind them over the JSON SBI, and the UE's side of the
// exchange — to an exact allocation count. With the collector off no sync.Pool is emptied
// mid-count; pools still drop items at random under the race detector, so
// this file builds only without -race; make ci runs it in its no-race
// go test run.
func TestHotPathAllocs(t *testing.T) {
	const want = 67
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	h := newHarness(t)
	device := h.device(t)
	h.register(t, device, 1)
	reregister := func() { h.reregister(t, device, 1, false) }
	reregister()
	if n := testing.AllocsPerRun(100, reregister); n != want {
		t.Errorf("GUTI re-registration: %v allocs, want %d", n, want)
	}
}
