package admission

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
)

// TestConcurrentAdmitAndStats admits from several gNBs in one goroutine
// and reads the counters in another, over ten rounds. Stats shares nothing
// with Admit but the controller's lock, so under -race an Admit or Stats
// that skipped it fails here.
func TestConcurrentAdmitAndStats(t *testing.T) {
	ctrl := armed(simclock.New(0))
	for range 10 {
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			for i := range 200 {
				_ = ctrl.Admit(context.Background(), fmt.Sprintf("gnb-%d", i%8), sbi.PriorityFresh)
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			for range 200 {
				_ = ctrl.Stats()
			}
		}()
		close(start)
		wg.Wait()
	}
	st := ctrl.Stats()
	if total := st.Admitted[sbi.PriorityFresh] + st.TotalDropped(); total != 2000 || st.Sources != 8 {
		t.Errorf("counted %d decisions over %d sources, want 2000 over 8", total, st.Sources)
	}
}
