package sbi_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"shield5g"
	"shield5g/internal/nf/udr"
	"shield5g/internal/paka"
	"shield5g/internal/sbi"
	"shield5g/internal/sbi/codec"
)

// TestBinarySliceServesNo4xx is the deployment-level half of the format
// rule (TestPostFormatRule is the other): on a BinarySBI slice every
// server is wrapped, and a registration, an SQN resynchronisation and a
// crash-restart reprovision must all complete on frames without any
// server answering 4xx — bar the one 404 USER_NOT_FOUND from the emptied
// eUDM, which is the signal the reprovision path is built on.
func TestBinarySliceServesNo4xx(t *testing.T) {
	ctx := context.Background()
	tb, err := shield5g.NewTestbed(ctx, shield5g.SliceConfig{Isolation: paka.Container, Seed: 42, BinarySBI: true})
	if err != nil {
		t.Fatalf("NewTestbed: %v", err)
	}
	defer tb.Close()

	var frames, lostKey, resyncs int
	var clientErrors []string
	for _, name := range tb.Slice.Registry.Names() {
		srv, _ := tb.Slice.Registry.Lookup(name)
		sbi.WrapHandlers(srv, func(path string, h sbi.HandlerFunc) sbi.HandlerFunc {
			return func(ctx context.Context, body []byte) ([]byte, error) {
				if codec.IsFrame(body) {
					frames++
				}
				if path == paka.PathUDMResync {
					resyncs++
				}
				out, err := h(ctx, body)
				switch pd, ok := sbi.AsProblem(err); {
				case !ok || pd.Status/100 != 4:
				case pd.Cause == "USER_NOT_FOUND":
					lostKey++
				default:
					clientErrors = append(clientErrors, fmt.Sprintf("%s%s: %v", name, path, pd))
				}
				return out, err
			}
		})
	}
	subs := make([]*shield5g.Subscriber, 3)
	for i := range subs {
		if subs[i], err = tb.AddSubscriber(ctx, make([]byte, 16), nil); err != nil {
			t.Fatalf("AddSubscriber: %v", err)
		}
	}
	register := func(what string, sub *shield5g.Subscriber) {
		t.Helper()
		if _, err := tb.Register(ctx, sub); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	register("registration", subs[0])
	if frames == 0 {
		t.Fatal("no server of a BinarySBI slice saw a frame during a registration")
	}
	// A USIM sequence number far ahead of the network's makes the first
	// challenge stale and forces an AUTS resynchronisation.
	if err := subs[1].UE.SetSQN([]byte{0x00, 0x00, 0x00, 0x01, 0x00, 0x00}); err != nil {
		t.Fatalf("SetSQN: %v", err)
	}
	register("resync", subs[1])
	if resyncs != 1 {
		t.Fatalf("eUDM served %d resynchronisations, want 1", resyncs)
	}
	// The UDR rebased its sequence number on the SQN_MS the resync frame
	// carried — one step for the rebase, one for the vector that followed —
	// and kept its own copy: the frame has been released (and, under the
	// pool audit, poisoned) since.
	rec, err := udr.NewClient(sbi.NewClient("test", tb.Slice.Env, tb.Slice.Registry)).Get(ctx, subs[1].SUPI.String())
	if err != nil {
		t.Fatalf("UDR Get: %v", err)
	}
	if want := []byte{0x00, 0x00, 0x00, 0x01, 0x00, 0x40}; !bytes.Equal(rec.SQN, want) {
		t.Fatalf("UDR SQN after resync = %x, want %x (SQN_MS + 2 steps of 32)", rec.SQN, want)
	}
	if lostKey != 0 {
		t.Fatalf("%d USER_NOT_FOUND answers before any crash", lostKey)
	}
	// The container's keys die with it: the first AV for a subscriber
	// provisioned before the crash finds the eUDM empty.
	if err := tb.Slice.RestartShardModule(ctx, 0, paka.EUDM); err != nil {
		t.Fatalf("RestartShardModule: %v", err)
	}
	register("registration after crash-restart", subs[2])
	if got := tb.Slice.Shards[0].UDM.Reprovisions(); got != 1 || lostKey != 1 {
		t.Fatalf("reprovisions = %d on %d USER_NOT_FOUND answers, want 1 on 1", got, lostKey)
	}
	if len(clientErrors) != 0 {
		t.Fatalf("servers answered 4xx: %v", clientErrors)
	}
}
