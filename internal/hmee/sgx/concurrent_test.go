package sgx

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"shield5g/internal/sbi/codec"
)

// TestConcurrentKeyStoreAndLifecycle runs each accessor of an enclave's key
// store, of the platform's sealed files and of its enclave table in a
// goroutine of its own, over ten rounds: storing, loading, deleting,
// restoring a deleted key from its sealed file, dumping, re-sealing,
// building and destroying. Each goroutine's only synchronisation is the
// lock its accessor takes, so under -race a StoreSecret, LoadSecret,
// DeleteSecret, restoreSecret, Introspect, SealBackup, Build or Destroy
// without its lock fails here.
func TestConcurrentKeyStoreAndLifecycle(t *testing.T) {
	p := testPlatform(t)
	e := build(t, p, testConfig())
	sealed := []byte("0123456789abcdef")
	sealedSUPI := supi("imsi-99")
	if err := e.SealBackup(sealedSUPI, sealed); err != nil {
		t.Fatal(err)
	}
	churn := testConfig()
	churn.Name, churn.SizeBytes = "churn", 16<<20
	ctx := context.Background()
	name := func(i int) codec.SUPI { return supi(fmt.Sprintf("imsi-%d", i%8)) }
	for range 10 {
		doomed := make([]*Enclave, 10)
		for i := range doomed {
			doomed[i] = build(t, p, churn)
		}
		built := make([]*Enclave, 10)
		start := make(chan struct{})
		var wg sync.WaitGroup
		each := func(n int, f func(th *Thread, i int)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := &Thread{enclave: e}
				<-start
				for i := range n {
					f(th, i)
				}
			}()
		}
		each(100, func(th *Thread, i int) { th.StoreSecret(name(i), [16]byte{1}) })
		each(100, func(th *Thread, i int) {
			th.LoadSecret(name(i))
		})
		each(100, func(th *Thread, i int) { th.DeleteSecret(name(i)) })
		each(100, func(th *Thread, _ int) {
			th.DeleteSecret(sealedSUPI)
			e.restoreSecret(sealedSUPI)
		})
		each(100, func(*Thread, int) { e.Introspect() })
		each(100, func(*Thread, int) { _ = e.SealBackup(sealedSUPI, sealed) })
		each(len(built), func(_ *Thread, i int) {
			var err error
			if built[i], err = p.Build(ctx, churn); err != nil {
				t.Error(err)
			}
		})
		each(len(doomed), func(_ *Thread, i int) { doomed[i].Destroy() })
		close(start)
		wg.Wait()
		for _, x := range built {
			if x != nil {
				x.Destroy()
			}
		}
	}
}
