package sbi

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"shield5g/internal/costmodel"
)

// TestConcurrentRegistryServerAndClientState runs each accessor of the maps
// an SBI deployment shares in a goroutine of its own, over ten rounds, as
// servers join, leave and gain endpoints while clients post: the
// registry's servers, a server's handlers, a client's first-contact set,
// its peers' overload adverts and its breakers. Each goroutine's only
// synchronisation is the lock its accessor takes, so under -race a
// Register, Deregister, Lookup, Names, HandleDual, Paths, lookup, Post,
// record, PeerOCI, BreakerFor or ResilientClient.Stats without its lock
// fails here.
func TestConcurrentRegistryServerAndClientState(t *testing.T) {
	env := costmodel.NewEnv(nil, 1)
	echo := BinHandler(func(_ context.Context, req *binMsg) (*binMsg, error) { return req, nil })
	ctx := context.Background()
	for round := range 10 {
		reg := NewRegistry()
		for _, name := range []string{"echo-a", "echo-b"} {
			srv := NewServer(name, env)
			srv.HandleDual("/echo", echo)
			if err := reg.Register(srv); err != nil {
				t.Fatal(err)
			}
		}
		srv, _ := reg.Lookup("echo-a")
		client := NewClient("amf", env, reg)
		resilient := NewResilient(client, env, client)
		var oci ociTable
		start := make(chan struct{})
		var wg sync.WaitGroup
		each := func(f func(i int)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := range 50 {
					f(i)
				}
			}()
		}
		post := func(service string) func(int) {
			return func(int) {
				var out binMsg
				if err := client.Post(ctx, service, "/echo", &binMsg{Value: "v"}, &out); err != nil {
					t.Error(err)
				}
			}
		}
		extra := func(i int) string { return fmt.Sprintf("extra-%d-%d", round, i) }
		each(func(i int) {
			if err := reg.Register(NewServer(extra(i), env)); err != nil {
				t.Error(err)
			}
		})
		each(func(i int) { reg.Deregister(extra(i)) })
		each(func(i int) { reg.Lookup(extra(i)) })
		each(func(int) { reg.Names() })
		each(func(i int) { srv.HandleDual("/"+extra(i), echo) })
		each(func(int) { srv.Paths() })
		each(func(i int) { srv.lookup("/" + extra(i)) })
		each(post("echo-a"))
		each(post("echo-b"))
		each(func(i int) { oci.record(fmt.Sprintf("peer-%d", i%4), OCI{Seq: uint64(i)}) })
		each(func(int) { oci.PeerOCI("peer-0") })
		each(func(i int) { resilient.BreakerFor(fmt.Sprintf("svc-%d", i%8)) })
		each(func(int) { resilient.Stats() })
		close(start)
		wg.Wait()
		if n := len(srv.Paths()); n != 51 {
			t.Fatalf("echo-a serves %d paths, want 51", n)
		}
	}
}
