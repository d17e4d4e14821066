package sbi_test

import (
	"context"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/simclock"
)

// benchmarkPost times one Client.Post of an AV request to an echo handler
// answering an AV response — the message pair and the handler shape of
// the benchmark's sbi.post_* probes — in either wire format. This test
// binary runs with the body-pool audit on (export_test.go), which about
// doubles the time per post (poison fill, poison check, owner map); the
// allocation counts are the production path's, and bench/'s probes time it
// with the audit off.
func benchmarkPost(b *testing.B, binary bool) {
	env := costmodel.NewEnv(nil, 1)
	req := &paka.UDMGenerateAVRequest{
		SUPI: "imsi-001010000000001", OPc: make([]byte, 16), RAND: make([]byte, 16),
		SQN: make([]byte, 6), AMFID: []byte{0x80, 0x00}, SNN: "5G:mnc001.mcc001.3gppnetwork.org",
	}
	av, err := paka.GenerateAV(make([]byte, 16), req)
	if err != nil {
		b.Fatal(err)
	}
	registry := sbi.NewRegistry()
	echo := sbi.NewServer("echo", env)
	echo.HandleDual("/echo", sbi.BinHandler(func(context.Context, *paka.UDMGenerateAVRequest) (*paka.UDMGenerateAVResponse, error) {
		resp := *av
		return &resp, nil
	}))
	if err := registry.Register(echo); err != nil {
		b.Fatal(err)
	}
	client := sbi.NewClient("bench", env, registry)
	if binary {
		client.EnableBinary()
	}
	// Every registration carries its account; without one each charge
	// would allocate a throwaway.
	ctx := simclock.WithAccount(context.Background(), new(simclock.Account))
	var resp paka.UDMGenerateAVResponse
	post := func() {
		if err := client.Post(ctx, "echo", "/echo", req, &resp); err != nil {
			b.Fatal(err)
		}
	}
	post() // first contact: the handshake stays out of the loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

func BenchmarkSBIPostJSON(b *testing.B)   { benchmarkPost(b, false) }
func BenchmarkSBIPostBinary(b *testing.B) { benchmarkPost(b, true) }
