package hmee

import (
	"fmt"
	"sync"
	"testing"

	"shield5g/internal/costmodel"
)

// TestConcurrentProcessKeyStore runs each key-store accessor in a goroutine
// of its own over the same names, over ten rounds: storing, loading,
// deleting and dumping. They share nothing but the process's lock, so
// under -race a StoreSecret, LoadSecret, DeleteSecret or Introspect without
// it fails here.
func TestConcurrentProcessKeyStore(t *testing.T) {
	p := NewProcess(costmodel.NewEnv(nil, 1), ContainerPrices())
	for range 10 {
		start := make(chan struct{})
		var wg sync.WaitGroup
		each := func(f func(c *call, name string)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := &call{p: p}
				<-start
				for i := range 200 {
					f(c, fmt.Sprintf("imsi-%d", i%8))
				}
			}()
		}
		each(func(c *call, name string) { c.StoreSecret(name, [16]byte{1}) })
		each(func(c *call, name string) {
			c.LoadSecret(name)
		})
		each(func(c *call, name string) { c.DeleteSecret(name) })
		each(func(*call, string) { p.Introspect() })
		close(start)
		wg.Wait()
	}
}
