package udm

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/crypto/suci"
	"shield5g/internal/race"
	"shield5g/internal/sbi"
)

// TestGenerateAuthDataPairKeepsItsSUCI: the UDM's served pair keeps the
// SUCI a request decoded into, zeroed once the request is answered, and
// it is invisible: a SUPI-only JSON body after a SUCI one reaches the
// handler with SUCI nil, exactly as in a zero pair, and the next SUCI
// body decodes into the kept one, in either format.
func TestGenerateAuthDataPairKeepsItsSUCI(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// A sync.Pool hands a goroutine back what it put only on the same P.
	if !race.Enabled {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	ctx := context.Background()
	env := costmodel.NewEnv(nil, 1)
	reg := sbi.NewRegistry()
	var seen *suci.SUCI
	var seenCopy suci.SUCI
	srv := sbi.NewServer("udm-probe", env)
	generateAuthData.Serve(srv, func(_ context.Context, req *GenerateAuthDataRequest, _ *GenerateAuthDataResponse) error {
		seen = req.SUCI
		if seen != nil {
			// The scheme output is a view into the request body: a copy
			// that outlives the handler clones it.
			seenCopy = *seen
			seenCopy.SchemeOutput = bytes.Clone(seen.SchemeOutput)
		}
		return nil
	})
	if err := reg.Register(srv); err != nil {
		t.Fatal(err)
	}
	jsonClient, frameClient := sbi.NewClient("ausf", env, reg), sbi.NewClient("ausf", env, reg)
	frameClient.EnableBinary()
	concealed := &suci.SUCI{MCC: "001", MNC: "01", RoutingIndicator: "0000", Scheme: suci.SchemeNull, SchemeOutput: []byte("0000000001")}
	for _, client := range []*sbi.Client{frameClient, jsonClient} {
		post := func(req *GenerateAuthDataRequest) {
			t.Helper()
			if err := client.Post(ctx, srv.Name(), PathGenerateAuthData, req, &GenerateAuthDataResponse{}); err != nil {
				t.Fatal(err)
			}
		}
		post(&GenerateAuthDataRequest{SUCI: concealed, ServingNetworkName: testSNN})
		kept := seen
		if kept == nil || seenCopy.MCC != "001" || string(seenCopy.SchemeOutput) != "0000000001" {
			t.Fatalf("handler saw SUCI %+v, want the posted one", seenCopy)
		}
		if !reflect.ValueOf(*kept).IsZero() {
			t.Fatalf("the pair's kept SUCI outlived the request: %+v", *kept)
		}
		post(&GenerateAuthDataRequest{SUPI: "imsi-001010000000001", ServingNetworkName: testSNN})
		if seen != nil {
			t.Fatalf("a SUPI-only body after a SUCI one reached the handler with SUCI %+v, want nil", *seen)
		}
		post(&GenerateAuthDataRequest{SUCI: concealed, ServingNetworkName: testSNN})
		if seen == nil || seenCopy.RoutingIndicator != "0000" {
			t.Fatalf("handler saw SUCI %+v, want the posted one", seenCopy)
		}
		// sync.Pool may drop the pair under the race detector.
		if !race.Enabled && seen != kept {
			t.Error("a later SUCI was decoded into a fresh target, want the kept one")
		}
	}
}
