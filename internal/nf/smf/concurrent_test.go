package smf

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"shield5g/internal/sbi/codec"
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
		each := func(f func(supi codec.SUPI)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := range 50 {
					f(mustSUPI(fmt.Sprintf("imsi-%d%03d", round, i)))
				}
			}()
		}
		each(func(supi codec.SUPI) {
			if err := s.handleCreate(ctx, &CreateSessionRequest{SUPI: supi, SessionID: 1, DNN: "internet"}, new(CreateSessionResponse)); err != nil {
				t.Error(err)
			}
		})
		each(func(supi codec.SUPI) { _ = s.handleRelease(ctx, &ReleaseSessionRequest{SUPI: supi, SessionID: 1}, nil) })
		each(func(codec.SUPI) { s.SessionCount() })
		close(start)
		wg.Wait()
	}
}
