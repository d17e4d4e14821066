package smf

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentSessions runs the create handler, the release handler and
// SessionCount in goroutines of their own, over ten rounds. They share
// nothing but the SMF's lock on the session map, so under -race any of
// them without the lock fails here.
func TestConcurrentSessions(t *testing.T) {
	s, _, _ := harness(t)
	ctx := context.Background()
	for round := range 10 {
		start := make(chan struct{})
		var wg sync.WaitGroup
		each := func(f func(supi string)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := range 50 {
					f(fmt.Sprintf("imsi-%d-%d", round, i))
				}
			}()
		}
		each(func(supi string) {
			if err := s.handleCreate(ctx, &CreateSessionRequest{SUPI: supi, SessionID: 1, DNN: "internet"}, new(CreateSessionResponse)); err != nil {
				t.Error(err)
			}
		})
		each(func(supi string) { _ = s.handleRelease(ctx, &ReleaseSessionRequest{SUPI: supi, SessionID: 1}, nil) })
		each(func(string) { s.SessionCount() })
		close(start)
		wg.Wait()
	}
}
