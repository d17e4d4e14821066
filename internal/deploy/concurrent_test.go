package deploy

import (
	"sync"
	"testing"

	"shield5g/internal/paka"
)

// TestConcurrentAttestation attests the four eUDMs of a container slice
// from four goroutines at once, each its own replica's, over ten rounds
// that each start from an empty attested set, as the first keys for each
// replica race to release K. On a container slice there is no evidence to
// check, so the goroutines share nothing but attestMu: under -race an
// attestEUDM without it fails here.
func TestConcurrentAttestation(t *testing.T) {
	s := newSliceWith(t, SliceConfig{Isolation: paka.Container, Seed: 61, Replicas: 4})
	for range 10 {
		s.attested = make(map[*paka.Module]bool)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, shard := range s.Shards {
			m := shard.Modules[paka.EUDM]
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for range 50 {
					if err := s.attestEUDM(m); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		if len(s.attested) != 4 {
			t.Fatalf("%d eUDMs attested, want all 4", len(s.attested))
		}
	}
}
