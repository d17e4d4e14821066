//go:build !race

package paka

import (
	"context"
	"fmt"
	"testing"

	"shield5g/internal/simclock"
)

// TestHotPathAllocs holds one warm request to each module function —
// mintInto, deriveSE, deriveKAMF behind the module's endpoint — to an
// exact allocation count on every runtime a slice deploys it on: the
// container and the SEV guest (hmee.Process), SGX through Gramine with
// classic and exitless OCALLs, and the switchless ring; each alone and on
// a keep-alive connection. The counts include the client's Post and its
// decode of the answer, and cover hmee.Walk, the Gramine instance's
// crossing and OCALLs and the ring's Submit beneath them. sync.Pool drops items at random under the race
// detector, so this file builds only without -race; make ci runs it in its
// no-race go test run.
func TestHotPathAllocs(t *testing.T) {
	av, err := GenerateAV(testK, avRequest())
	if err != nil {
		t.Fatalf("GenerateAV: %v", err)
	}
	seReq := &AUSFDeriveSERequest{RAND: av.RAND, XRESStar: av.XRESStar, KAUSF: av.KAUSF, SNN: testSNN}
	kamfReq := &AMFDeriveKAMFRequest{KSEAF: av.KAUSF, SUPI: testSUPI, ABBA: []byte{0, 0}}
	// want is the count for GenerateAV, DeriveSE and DeriveKAMF: the
	// strings and byte strings the module and the client decode and keep.
	// The runtimes add nothing, so it is the same on every one.
	want := [3]float64{4, 0, 2}
	for _, rt := range []string{"container", "sev", "sgx", "exitless", "ring"} {
		h := newHarness(t, 43)
		deploy := func(kind ModuleKind) *Module {
			cfg := Config{Kind: kind, Env: h.env, Platform: h.platform, SEVHost: h.sevHost, Registry: h.registry, Isolation: SGX}
			switch rt {
			case "container":
				cfg.Isolation = Container
			case "sev":
				cfg.Isolation = SEV
			case "exitless":
				cfg.Exitless = true
			case "ring":
				cfg.Switchless = true
			}
			m, err := New(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s: New(%s): %v", rt, kind, err)
			}
			t.Cleanup(m.Stop)
			return m
		}
		udm := deploy(EUDM)
		deploy(EAUSF)
		deploy(EAMF)
		if err := udm.ProvisionSubscriber(context.Background(), testSUPI, testK); err != nil {
			t.Fatalf("%s: ProvisionSubscriber: %v", rt, err)
		}
		for conn, ctx := range []context.Context{context.Background(), WithConnection(context.Background(), 1, 8)} {
			// Requests carry their account, as every driver's do.
			ctx = simclock.WithAccount(ctx, &simclock.Account{})
			var avResp UDMGenerateAVResponse
			var seResp AUSFDeriveSEResponse
			var kamfResp AMFDeriveKAMFResponse
			for i, call := range []struct {
				service, path string
				req, resp     any
			}{
				{EUDM.ServiceName(), PathUDMGenerateAV, avRequest(), &avResp},
				{EAUSF.ServiceName(), PathAUSFDeriveSE, seReq, &seResp},
				{EAMF.ServiceName(), PathAMFDeriveKAMF, kamfReq, &kamfResp},
			} {
				post := func() {
					if err := h.client.Post(ctx, call.service, call.path, call.req, call.resp); err != nil {
						t.Fatalf("%s %s: %v", rt, call.path, err)
					}
				}
				post() // warm the module, the pools and the connection
				name := fmt.Sprintf("%s %s (connection %v)", rt, call.path, conn == 1)
				if n := testing.AllocsPerRun(100, post); n != want[i] {
					t.Errorf("%s: %v allocs, want %v", name, n, want[i])
				}
			}
		}
	}
}
