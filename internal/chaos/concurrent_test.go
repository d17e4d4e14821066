package chaos

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/hmee/sgx"
)

// TestConcurrentHookRegistration runs each hook accessor in a goroutine of
// its own over the same services, over ten rounds, as a slice registers a
// restarted module's hooks while faults land. The accessors share nothing
// but the injector's lock, so under -race a RegisterCrash,
// RegisterEnclave, crashFor or enclaveFor without it fails here.
func TestConcurrentHookRegistration(t *testing.T) {
	inj := NewInjector(costmodel.NewEnv(nil, 3), Config{Seed: 2})
	for range 10 {
		start := make(chan struct{})
		var wg sync.WaitGroup
		each := func(f func(service string)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := range 200 {
					f(fmt.Sprintf("svc-%d", i%4))
				}
			}()
		}
		each(func(s string) { inj.RegisterCrash(s, func(context.Context) error { return nil }) })
		each(func(s string) { inj.RegisterEnclave(s, func() *sgx.Enclave { return nil }) })
		each(func(s string) { inj.crashFor(s) })
		each(func(s string) { inj.enclaveFor(s) })
		close(start)
		wg.Wait()
	}
	if inj.crashFor("svc-3") == nil {
		t.Error("svc-3's crash hook was not registered")
	}
}
