package udm

import (
	"fmt"
	"sync"
	"testing"

	"shield5g/internal/paka"
	"shield5g/internal/sbi/codec"
)

// TestConcurrentPoolAccessors runs each pool accessor in a goroutine of its
// own over the same SUPIs, over ten rounds, as an AUTS resync or a
// crash-restart lands in the middle of a mass registration: serving,
// refilling, resynchronising, dropping the pool and counting it. They
// share nothing but the pool's lock, so under -race a take, fill,
// invalidate, invalidateAll or pooled without it fails here.
func TestConcurrentPoolAccessors(t *testing.T) {
	p := newAVPool(4)
	var supis [8]codec.SUPI
	for i := range supis {
		supis[i], _ = codec.ParseSUPI(fmt.Sprintf("imsi-%d", i))
	}
	supi := func(i int) codec.SUPI { return supis[i%8] }
	for range 10 {
		start := make(chan struct{})
		var wg sync.WaitGroup
		each := func(f func(i int)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := range 200 {
					f(i)
				}
			}()
		}
		var av paka.UDMGenerateAVResponse
		each(func(i int) { p.take(supi(i), &av) })
		each(func(i int) { p.fill(supi(i), make([]paka.UDMGenerateAVResponse, 2)) })
		each(func(i int) { p.invalidate(supi(i)) })
		each(func(int) { p.invalidateAll() })
		each(func(int) { p.pooled() })
		close(start)
		wg.Wait()
	}
	if p.hits.Load()+p.misses.Load() != 2000 || p.refills.Load() != 2000 {
		t.Errorf("%d takes and %d refills counted, want 2000 each", p.hits.Load()+p.misses.Load(), p.refills.Load())
	}
}
