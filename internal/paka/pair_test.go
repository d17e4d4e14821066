package paka

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"shield5g/internal/race"
	"shield5g/internal/sbi"
)

// zeroUpToCap reports whether every element of s, up to its capacity,
// is the zero value.
func zeroUpToCap[T any](s []T) bool {
	for _, v := range s[:cap(s)] {
		if !reflect.ValueOf(v).IsZero() {
			return false
		}
	}
	return true
}

// TestBatchPairKeepsItsBacking: the eUDM's served batch pair keeps the
// backing of the items it decoded and of the vectors it minted between
// refills, and that storage is invisible and clean. Once a refill has been
// answered, both read zero up to capacity — no OPc view, SUPI or K_AUSF
// outlives it — and the next refill reuses them. A body whose list is
// absent, null or empty reaches the handler exactly as it decodes in a
// zero pair (nil, or an empty list for JSON's []), and the empty batch
// answers the bytes a zero response encodes to, in either format.
func TestBatchPairKeepsItsBacking(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// A sync.Pool hands a goroutine back what it put only on the same P.
	if !race.Enabled {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	ctx := context.Background()
	for _, frames := range []bool{true, false} {
		h := newHarness(t, 91)
		m := h.module(t, EUDM, Container)
		if err := m.ProvisionSubscriber(ctx, testSUPI, testK); err != nil {
			t.Fatal(err)
		}
		// A server of the test's own serves the module's batch operation
		// through its Endpoint, and records what the handler is handed.
		var items []UDMGenerateAVRequest
		var vectors []UDMGenerateAVResponse
		srv := sbi.NewServer("batch-probe", nil)
		eudmGenerateAVBatch.Serve(srv, func(ctx context.Context, req *UDMGenerateAVBatchRequest, resp *UDMGenerateAVBatchResponse) error {
			items = req.Items
			err := m.GenerateAVBatch(ctx, req, resp)
			vectors = resp.Vectors
			return err
		})
		if err := h.registry.Register(srv); err != nil {
			t.Fatal(err)
		}
		client := sbi.NewClient("udm", h.env, h.registry)
		if frames {
			client.EnableBinary()
		}
		want := directAV(t, testK, avRequest())
		refill := func() ([]UDMGenerateAVRequest, []UDMGenerateAVResponse) {
			t.Helper()
			req := &UDMGenerateAVBatchRequest{Items: make([]UDMGenerateAVRequest, 8)}
			for i := range req.Items {
				req.Items[i] = *avRequest()
			}
			var resp UDMGenerateAVBatchResponse
			if err := client.Post(ctx, srv.Name(), PathUDMGenerateAVBatch, req, &resp); err != nil {
				t.Fatalf("frames %v: refill: %v", frames, err)
			}
			if len(resp.Vectors) != 8 || resp.Vectors[7] != *want {
				t.Fatalf("frames %v: refill answered %d vectors, want 8 equal to GenerateAV's", frames, len(resp.Vectors))
			}
			if len(items) != 8 || len(vectors) != 8 {
				t.Fatalf("frames %v: handler saw %d items and filled %d vectors, want 8 and 8", frames, len(items), len(vectors))
			}
			if !zeroUpToCap(items) || !zeroUpToCap(vectors) {
				t.Fatalf("frames %v: the pair's kept items or vectors outlived the refill", frames)
			}
			return items, vectors
		}
		firstItems, firstVectors := refill()

		// Empty batches, each after a refill of eight.
		type empty struct {
			name string
			body any
			nil  bool // the handler must see a nil list, else an empty one
		}
		rows := []empty{{"nil items", &UDMGenerateAVBatchRequest{}, true}}
		if !frames {
			rows = append(rows,
				empty{"absent items", json.RawMessage(`{}`), true},
				empty{"null items", json.RawMessage(`{"items":null}`), true},
				empty{"empty items", json.RawMessage(`{"items":[]}`), false})
		}
		zeroAnswer, err := sbi.MarshalBody(&UDMGenerateAVBatchResponse{})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			refill()
			var answer json.RawMessage
			var resp UDMGenerateAVBatchResponse
			out := any(&resp)
			if !frames {
				out = &answer
			}
			if err := client.Post(ctx, srv.Name(), PathUDMGenerateAVBatch, row.body, out); err != nil {
				t.Fatalf("frames %v, %s: %v", frames, row.name, err)
			}
			if (items == nil) != row.nil || len(items) != 0 {
				t.Errorf("frames %v, %s: handler saw items %#v (nil %v), want nil %v", frames, row.name, items, items == nil, row.nil)
			}
			if frames && resp.Vectors != nil {
				t.Errorf("frames %v, %s: answered %d vectors, want none", frames, row.name, len(resp.Vectors))
			}
			if !frames && string(answer) != string(zeroAnswer) {
				t.Errorf("frames %v, %s: answered %s, want %s", frames, row.name, answer, zeroAnswer)
			}
		}

		// sync.Pool may drop the pair under the race detector.
		if again, vs := refill(); !race.Enabled && (&again[0] != &firstItems[0] || &vs[0] != &firstVectors[0]) {
			t.Errorf("frames %v: a later refill decoded and minted into fresh backings, want the kept ones", frames)
		}
	}
}
