//go:build !race

package paka

import (
	"context"
	"fmt"
	"testing"

	"shield5g/internal/sbi"
	"shield5g/internal/sbi/codec"
	"shield5g/internal/simclock"
)

// TestHotPathAllocs holds one warm request to each module function —
// mintInto, deriveSE, deriveKAMF behind the module's endpoint, and a
// two-vector refill through GenerateAVBatch — to an exact allocation count
// on every runtime a slice deploys it on: the container and the SEV guest
// (hmee.Process), SGX through Gramine with classic and exitless OCALLs,
// and the switchless ring; each alone and on a keep-alive connection. The
// counts include the client's Post and its decode of the answer, and
// cover hmee.Walk, the Gramine instance's crossing and OCALLs, the batch's
// ECALL and the ring's Submit beneath them. sync.Pool drops items at
// random under the race detector, so this file builds only without -race;
// make ci runs it in its no-race go test run.
func TestHotPathAllocs(t *testing.T) {
	av, err := GenerateAV(testK, avRequest())
	if err != nil {
		t.Fatalf("GenerateAV: %v", err)
	}
	seReq := &AUSFDeriveSERequest{RAND: av.RAND, XRESStar: av.XRESStar, KAUSF: av.KAUSF, SNN: testSNN}
	kamfReq := &AMFDeriveKAMFRequest{KSEAF: av.KAUSF, SUPI: testSUPI, ABBA: []byte{0, 0}}
	batchReq := &UDMGenerateAVBatchRequest{Items: []UDMGenerateAVRequest{*avRequest(), *avRequest()}}
	for _, rt := range []string{"container", "sev", "sgx", "exitless", "ring"} {
		h := newHarness(t, 43)
		frames := sbi.NewClient("udm", h.env, h.registry)
		frames.EnableBinary()
		deploy := func(kind ModuleKind) *Module {
			// A classic SGX eUDM takes its batch ECALL on a spare TCS.
			cfg := Config{Kind: kind, Env: h.env, Platform: h.platform, SEVHost: h.sevHost, Registry: h.registry, Isolation: SGX, ReserveBatchTCS: kind == EUDM}
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
			t.Cleanup(func() { m.Stop(context.Background()) })
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
			var batchResp UDMGenerateAVBatchResponse
			// want is what the module and the client decode and keep: the
			// strings and byte strings, and for GenerateAV and the batch
			// the key schedule. A refill's vectors and items are the
			// served pair's kept backings, the items' JSON byte strings
			// included, so the batch adds one SUPI string per item and the
			// client's vectors, in either format. The runtimes add
			// nothing, so each count is the same on every one.
			for _, call := range []struct {
				client        *sbi.Client
				service, path string
				req, resp     codec.Message
				want          float64
			}{
				{h.client, EUDM.ServiceName(), PathUDMGenerateAV, avRequest(), &avResp, 3},
				{h.client, EAUSF.ServiceName(), PathAUSFDeriveSE, seReq, &seResp, 0},
				{h.client, EAMF.ServiceName(), PathAMFDeriveKAMF, kamfReq, &kamfResp, 2},
				{h.client, EUDM.ServiceName(), PathUDMGenerateAVBatch, batchReq, &batchResp, 4},
				{frames, EUDM.ServiceName(), PathUDMGenerateAVBatch, batchReq, &batchResp, 4},
			} {
				post := func() {
					if err := call.client.Post(ctx, call.service, call.path, call.req, call.resp); err != nil {
						t.Fatalf("%s %s: %v", rt, call.path, err)
					}
				}
				post() // warm the module, the pools and the connection
				name := fmt.Sprintf("%s %s (connection %v, frames %v)", rt, call.path, conn == 1, call.client == frames)
				if n := testing.AllocsPerRun(100, post); n != call.want {
					t.Errorf("%s: %v allocs, want %v", name, n, call.want)
				}
			}
		}
	}
}
