package udr

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/race"
	"shield5g/internal/sbi"
	"shield5g/internal/sbi/codec"
)

// TestNextAuthPairsKeepTheirBacking: the UDR's served NextAuth and
// NextAuthBatch pairs keep the one array their handler copies OPc, the
// AMF field and the SQNs into, and it is invisible and clean: once the
// answer is out it reads zero up to capacity, the next answer reuses it,
// and an unknown SUPI still finds OPc nil and answers 404.
func TestNextAuthPairsKeepTheirBacking(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// A sync.Pool hands a goroutine back what it put only on the same P.
	if !race.Enabled {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	ctx := context.Background()
	env := costmodel.NewEnv(nil, 1)
	reg := sbi.NewRegistry()
	u, err := New(env, reg)
	if err != nil {
		t.Fatal(err)
	}
	sub := validSubscriber("imsi-001010000000001")
	unknown, _ := codec.ParseSUPI("imsi-001010000000002")
	// A server of the test's own serves both operations through their
	// Endpoints and the UDR's handlers, and records the views each
	// answer was built from: together they cover the whole backing.
	var views [][]byte
	srv := sbi.NewServer("udr-probe", env)
	nextAuth.Serve(srv, func(ctx context.Context, req *NextAuthRequest, resp *NextAuthResponse) error {
		err := u.handleNextAuth(ctx, req, resp)
		views = [][]byte{resp.OPc, resp.SQN, resp.AMFField}
		return err
	})
	nextAuthBatch.Serve(srv, func(ctx context.Context, req *NextAuthBatchRequest, resp *NextAuthBatchResponse) error {
		err := u.handleNextAuthBatch(ctx, req, resp)
		views = [][]byte{resp.OPc, resp.AMFField, resp.SQNs}
		return err
	})
	if err := reg.Register(srv); err != nil {
		t.Fatal(err)
	}
	client := sbi.NewClient("udm", env, reg)
	client.EnableBinary()
	if err := client.Post(ctx, ServiceName, PathProvision, &ProvisionRequest{Subscriber: sub}, nil); err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		path    string
		req     func(codec.SUPI) codec.Message
		resp    codec.Message
		backing int
	}{
		{PathNextAuth, func(s codec.SUPI) codec.Message { return &NextAuthRequest{SUPI: s} }, new(NextAuthResponse), 16 + sqnLen + 2},
		{PathNextAuthBatch, func(s codec.SUPI) codec.Message { return &NextAuthBatchRequest{SUPI: s, Count: 8} }, new(NextAuthBatchResponse), 16 + 2 + 8*sqnLen},
	} {
		var first []byte
		for round := 0; round < 2; round++ {
			if err := client.Post(ctx, srv.Name(), op.path, op.req(sub.SUPI), op.resp); err != nil {
				t.Fatalf("%s: %v", op.path, err)
			}
			n := 0
			for _, v := range views {
				n += len(v)
				for _, b := range v[:cap(v)] {
					if b != 0 {
						t.Fatalf("%s: the pair's kept backing outlived the answer: %x", op.path, v[:cap(v)])
					}
				}
			}
			if n != op.backing {
				t.Fatalf("%s: the answer's views cover %d bytes, want %d", op.path, n, op.backing)
			}
			if round == 0 {
				first = views[0]
			} else if !race.Enabled && &views[0][0] != &first[0] {
				// sync.Pool may drop the pair under the race detector.
				t.Errorf("%s: a later answer was copied into a fresh backing, want the kept one", op.path)
			}
		}
		if err := client.Post(ctx, srv.Name(), op.path, op.req(unknown), op.resp); !sbi.HasCause(err, sbi.CauseUserNotFound) {
			t.Errorf("%s for an unknown SUPI after a served one: err %v, want USER_NOT_FOUND", op.path, err)
		}
	}
}
