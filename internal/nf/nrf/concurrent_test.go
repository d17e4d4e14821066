package nrf

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentRegisterAndDiscover runs the register and discover
// handlers in goroutines of their own, over ten rounds. They share nothing
// but the NRF's lock, so under -race either without it fails here.
func TestConcurrentRegisterAndDiscover(t *testing.T) {
	n, _ := harness(t)
	ctx := context.Background()
	for round := range 10 {
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			for i := range 20 {
				p := NFProfile{InstanceID: fmt.Sprintf("udm-%d-%d", round, i), NFType: "UDM", Service: "nudm"}
				if err := n.handleRegister(ctx, &RegisterRequest{Profile: p}, new(RegisterResponse)); err != nil {
					t.Error(err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			for range 20 {
				_ = n.handleDiscover(ctx, &DiscoverRequest{NFType: "UDM"}, new(DiscoverResponse))
			}
		}()
		close(start)
		wg.Wait()
	}
	var resp DiscoverResponse
	if err := n.handleDiscover(ctx, &DiscoverRequest{NFType: "UDM"}, &resp); err != nil || len(resp.Profiles) != 200 {
		t.Errorf("discovered %d instances, err %v; want 200, nil", len(resp.Profiles), err)
	}
}
