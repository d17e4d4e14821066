//go:build !race

package sgx

import (
	"context"
	"testing"

	"shield5g/internal/simclock"
)

// job stands in for a pooled request description that enters through
// ECall as a method value, the way gramine's batch crossing does.
type job struct{ cycles simclock.Cycles }

func (j *job) run(th *Thread) error {
	th.Compute(j.cycles)
	return nil
}

// TestHotPathAllocs holds an ECALL to zero allocations when its context
// carries the request's account, as every driver's does: the thread its
// body runs on comes from a pool, and a method value of the caller's job
// stays on the caller's stack. sync.Pool drops items at random under the
// race detector, so this file builds only without -race; make ci runs it
// in its no-race go test run.
func TestHotPathAllocs(t *testing.T) {
	e := build(t, testPlatform(t), testConfig())
	ctx := simclock.WithAccount(context.Background(), new(simclock.Account))
	var err error
	ecall := func() {
		j := job{cycles: 10_000}
		if cerr := e.ECall(ctx, 64, 64, j.run); cerr != nil {
			err = cerr
		}
	}
	ecall()
	if n := testing.AllocsPerRun(100, ecall); err != nil || n != 0 {
		t.Errorf("ECall: %v allocs, err %v; want 0, nil", n, err)
	}
}
