package sbi_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
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
	id, err := subs[1].SUPI.Value()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := udr.NewClient(sbi.NewClient("test", tb.Slice.Env, tb.Slice.Registry)).Get(ctx, id)
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

// TestSBIInventory is the route inventory of a deployed core, held to
// testdata/inventory.golden: one row per registered endpoint of an SGX,
// BinarySBI slice, with its server, path, request and response types,
// whether its pair travels framed on a binary client, and the key fields
// (secretflow's names) each side carries: the key columns are the
// allowed key flows of the SBI. A change that adds an operation, changes
// a type or lets an operation carry key material moves the golden;
// re-mint it with INVENTORY_UPDATE=1.
//
// It fails on a path registered without its types, a raw handler in the
// core, and on an endpoint whose request and response disagree on having
// a field description: that agreement is what makes Send, which posts a
// nil response, frame exactly as Post would.
func TestSBIInventory(t *testing.T) {
	const golden = "testdata/inventory.golden"
	tb, err := shield5g.NewTestbed(context.Background(), shield5g.SliceConfig{Isolation: paka.SGX, Seed: 1, BinarySBI: true})
	if err != nil {
		t.Fatalf("NewTestbed: %v", err)
	}
	defer tb.Close()

	var got bytes.Buffer
	got.WriteString("# service\tpath\trequest\tresponse\tformat\trequest keys\tresponse keys\n")
	names := tb.Slice.Registry.Names()
	sort.Strings(names)
	for _, name := range names {
		srv, _ := tb.Slice.Registry.Lookup(name)
		for _, r := range sbi.Routes(srv) {
			if r.Req == nil || r.Resp == nil {
				t.Errorf("%s%s is a raw handler: no request or response type on record", name, r.Path)
				continue
			}
			_, reqDescribed := r.Req.(codec.Message)
			_, respDescribed := r.Resp.(codec.Message)
			format := "json"
			switch {
			case reqDescribed != respDescribed:
				t.Errorf("%s%s: request %T described %v, response %T described %v", name, r.Path, r.Req, reqDescribed, r.Resp, respDescribed)
			case reqDescribed:
				format = "frame"
			}
			req, resp := reflect.TypeOf(r.Req).Elem(), reflect.TypeOf(r.Resp).Elem()
			fmt.Fprintf(&got, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", name, r.Path, req, resp, format, keyFields(req), keyFields(resp))
		}
	}

	if os.Getenv("INVENTORY_UPDATE") != "" {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (mint with INVENTORY_UPDATE=1): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("route inventory moved (re-mint with INVENTORY_UPDATE=1 only for a deliberate change):\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// keyNames are the key-material fields the inventory reports: secretflow's
// names for the long-term key, the operator key and the AKA key hierarchy.
var keyNames = map[string]bool{"K": true, "OPc": true, "KAUSF": true, "KSEAF": true, "KAMF": true}

// keyFields lists the key-material fields reachable from t as dotted
// paths ("[]" marks a slice element), or "-" when there are none. Only
// exported fields travel: an unexported one (a codec.Kept) is written by
// no codec.
func keyFields(t reflect.Type) string {
	var out []string
	var walk func(t reflect.Type, path string, depth int)
	walk = func(t reflect.Type, path string, depth int) {
		for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice {
			if t.Kind() == reflect.Slice {
				path += "[]"
			}
			t = t.Elem()
		}
		if t.Kind() != reflect.Struct || depth > 4 {
			return
		}
		for i := range t.NumField() {
			if !t.Field(i).IsExported() {
				continue
			}
			name := t.Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			if keyNames[t.Field(i).Name] {
				out = append(out, name)
			}
			walk(t.Field(i).Type, name, depth+1)
		}
	}
	walk(t, "", 0)
	if len(out) == 0 {
		return "-"
	}
	return strings.Join(out, ",")
}
