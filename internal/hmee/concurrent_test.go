package hmee

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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

// TestProcessShutdownDrainsAdmittedCrossings: a crossing admitted before
// Shutdown finishes before the key store is cleared, whatever it stores on
// the way out, so a shut-down process holds no key. Shutdown waits for it
// and refuses every later crossing meanwhile.
func TestProcessShutdownDrainsAdmittedCrossings(t *testing.T) {
	p := NewProcess(costmodel.NewEnv(nil, 1), ContainerPrices())
	entered, proceed := make(chan struct{}), make(chan struct{})
	crossed := make(chan error, 1)
	go func() {
		_, err := p.Cross(context.Background(), OneShot, 40, 80, HandlerFunc(func(ex Exec) error {
			close(entered)
			<-proceed
			ex.StoreSecret("imsi-1", [16]byte{1})
			return nil
		}))
		crossed <- err
	}()
	<-entered
	stopped := make(chan struct{})
	go func() {
		p.Shutdown(context.Background())
		close(stopped)
	}()
	for p.Running() {
		runtime.Gosched()
	}
	if _, err := p.Cross(context.Background(), OneShot, 40, 80, nil); !errors.Is(err, ErrStopped) {
		t.Fatalf("a crossing after Shutdown began: %v, want ErrStopped", err)
	}
	close(proceed)
	if err := <-crossed; err != nil {
		t.Fatalf("the admitted crossing: %v", err)
	}
	<-stopped
	if keys := p.Introspect(); len(keys) != 0 {
		t.Fatalf("a shut-down process still holds %d key(s)", len(keys))
	}
}
