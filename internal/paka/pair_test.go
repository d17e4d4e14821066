package paka

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
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

// keptBytes is the byte backing a batch request's items keep, up to its
// capacity: the codec's, read through reflection.
func keptBytes(req *UDMGenerateAVBatchRequest) reflect.Value {
	b := reflect.ValueOf(req).Elem().FieldByName("items").FieldByName("b")
	return b.Slice(0, b.Cap())
}

// TestBatchPairKeepsItsBacking: the eUDM's served batch pair keeps the
// backing of the items it decoded and of the vectors it minted between
// refills, and that storage is invisible and clean. On JSON, once the pair
// keeps its items, their byte strings (OPc, RAND, SQN, AMF-ID) are views
// of one byte backing it keeps too. Once a refill has been answered, all
// three read zero up to capacity — no OPc, SUPI or K_AUSF outlives it —
// and the next refill reuses them. A body whose list is
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
		var pair *UDMGenerateAVBatchRequest
		var views [][]byte // the items' byte strings, as the handler saw them
		srv := sbi.NewServer("batch-probe", nil)
		eudmGenerateAVBatch.Serve(srv, func(ctx context.Context, req *UDMGenerateAVBatchRequest, resp *UDMGenerateAVBatchResponse) error {
			items, pair, views = req.Items, req, views[:0]
			for _, it := range req.Items {
				views = append(views, it.OPc, it.RAND, it.SQN, it.AMFID)
			}
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
		refills := 0
		refill := func() ([]UDMGenerateAVRequest, []UDMGenerateAVResponse, uintptr) {
			t.Helper()
			refills++
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
			kept := keptBytes(pair)
			if !zeroUpToCap(items) || !zeroUpToCap(vectors) || !zeroUpToCap(kept.Bytes()) {
				t.Fatalf("frames %v: the pair's kept items, vectors or bytes outlived the refill", frames)
			}
			// The first refill fills the items backing the pair keeps; the
			// pool may drop the pair under the race detector.
			if !frames && refills > 1 && !race.Enabled {
				lo, hi := kept.Pointer(), kept.Pointer()+uintptr(kept.Cap())
				for _, b := range views {
					if p := reflect.ValueOf(b).Pointer(); len(b) == 0 || p < lo || p+uintptr(len(b)) > hi {
						t.Fatalf("refill %d: an item's byte string is not a view of the pair's kept byte backing", refills)
					}
				}
			}
			return items, vectors, kept.Pointer()
		}
		firstItems, firstVectors, _ := refill()
		_, _, firstKept := refill()

		// Empty batches, each after a refill of eight: a zero request from
		// the client, and, on JSON, bodies the client would not write,
		// posted to the server's HTTP edge.
		type empty struct {
			name string
			body string // "": the client posts a zero request
			nil  bool   // the handler must see a nil list, else an empty one
		}
		rows := []empty{{"nil items", "", true}}
		if !frames {
			rows = append(rows,
				empty{"absent items", `{}`, true},
				empty{"null items", `{"items":null}`, true},
				empty{"empty items", `{"items":[]}`, false})
		}
		zeroAnswer, err := sbi.MarshalBody(&UDMGenerateAVBatchResponse{})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			refill()
			var resp UDMGenerateAVBatchResponse
			if row.body == "" {
				if err := client.Post(ctx, srv.Name(), PathUDMGenerateAVBatch, &UDMGenerateAVBatchRequest{}, &resp); err != nil {
					t.Fatalf("frames %v, %s: %v", frames, row.name, err)
				}
			} else {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathUDMGenerateAVBatch, strings.NewReader(row.body)))
				if rec.Code != http.StatusOK || rec.Body.String() != string(zeroAnswer) {
					t.Errorf("frames %v, %s: answered %d %s, want 200 %s", frames, row.name, rec.Code, rec.Body, zeroAnswer)
				}
			}
			if (items == nil) != row.nil || len(items) != 0 {
				t.Errorf("frames %v, %s: handler saw items %#v (nil %v), want nil %v", frames, row.name, items, items == nil, row.nil)
			}
			if resp.Vectors != nil {
				t.Errorf("frames %v, %s: answered %d vectors, want none", frames, row.name, len(resp.Vectors))
			}
		}

		// sync.Pool may drop the pair under the race detector.
		if again, vs, kept := refill(); !race.Enabled && (&again[0] != &firstItems[0] || &vs[0] != &firstVectors[0] || kept != firstKept) {
			t.Errorf("frames %v: a later refill decoded and minted into fresh backings, want the kept ones", frames)
		}
	}
}
