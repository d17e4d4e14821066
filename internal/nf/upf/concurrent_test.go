package upf

import (
	"context"
	"sync"
	"testing"
)

// TestConcurrentSessionsAndForwarding runs each rule accessor in a
// goroutine of its own, over ten rounds: establishing sessions, forwarding
// over a held one, releasing them and counting them. They share nothing
// but the UPF's lock, so under -race an establish or release handler, a
// ForwardUplink or a SessionCount without it fails here.
func TestConcurrentSessionsAndForwarding(t *testing.T) {
	u, _ := harness(t)
	ctx := context.Background()
	var held EstablishResponse
	if err := u.handleEstablish(ctx, &EstablishRequest{SEID: 1 << 20, UEAddress: "10.60.0.1"}, &held); err != nil {
		t.Fatal(err)
	}
	for range 10 {
		start := make(chan struct{})
		var wg sync.WaitGroup
		each := func(f func(seid uint64)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := range 100 {
					f(uint64(i))
				}
			}()
		}
		each(func(seid uint64) {
			_ = u.handleEstablish(ctx, &EstablishRequest{SEID: seid, UEAddress: "10.60.0.2"}, new(EstablishResponse))
		})
		each(func(seid uint64) { _ = u.handleRelease(ctx, &ReleaseRequest{SEID: seid}, nil) })
		each(func(uint64) {
			if _, err := u.ForwardUplink(ctx, held.TEID, []byte("ping")); err != nil {
				t.Error(err)
			}
		})
		each(func(uint64) { u.SessionCount() })
		close(start)
		wg.Wait()
	}
}
