package paka

import (
	"context"
	"errors"
	"slices"
	"testing"

	"shield5g/internal/sbi"
	"shield5g/internal/sbi/codec"
)

// textBatch and textResync are the batch and resync requests with the
// SUPI as text, the way UDMGenerateAVRequest still carries it.
type textBatch struct {
	Items []UDMGenerateAVRequest `json:"items"`
}

type textResync struct {
	SUPI string `json:"supi"`
	OPc  []byte `json:"opc"`
	RAND []byte `json:"rand"`
	AUTS []byte `json:"auts"`
}

func (m *textBatch) Fields(f *codec.Fields) { codec.List(f, "items", &m.Items) }

func (m *textResync) Fields(f *codec.Fields) {
	f.String("supi", &m.SUPI, 0)
	f.Bytes("opc", &m.OPc, 0)
	f.Bytes("rand", &m.RAND, 0)
	f.Bytes("auts", &m.AUTS, 0)
}

// TestValueSUPIsKeepTheTextBytes: a batch of value items and a resync
// request encode, in a frame and in JSON, byte for byte as the same
// messages with the SUPI as text.
func TestValueSUPIsKeepTheTextBytes(t *testing.T) {
	req2 := avRequest()
	req2.SUPI = "imsi-001010000000002"
	auts := make([]byte, 14)
	for _, pair := range []struct {
		name        string
		value, text codec.Message
	}{
		{"batch", &UDMGenerateAVBatchRequest{Items: []UDMGenerateAVItem{itemOf(avRequest()), itemOf(req2)}}, &textBatch{Items: []UDMGenerateAVRequest{*avRequest(), *req2}}},
		{"resync", &UDMResyncRequest{SUPI: testID, OPc: testOPc, RAND: testRAND, AUTS: auts}, &textResync{SUPI: testSUPI, OPc: testOPc, RAND: testRAND, AUTS: auts}},
	} {
		if got, want := codec.AppendBinary(nil, pair.value), codec.AppendBinary(nil, pair.text); !slices.Equal(got, want) {
			t.Errorf("%s frame:\n got %x\nwant %x", pair.name, got, want)
		}
		got, err := codec.AppendJSON(nil, pair.value)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := codec.AppendJSON(nil, pair.text); string(got) != string(want) {
			t.Errorf("%s JSON:\n got %s\nwant %s", pair.name, got, want)
		}
	}
}

// TestMalformedBatchItemIsRefused: a batch item whose SUPI text is no SUPI
// is refused at decode, in either format: a 400 before any crossing, so
// the eUDM's key store is never read for it and still holds only what was
// provisioned. The same batch with well-formed text is served.
func TestMalformedBatchItemIsRefused(t *testing.T) {
	ctx := context.Background()
	for _, frames := range []bool{false, true} {
		h := newHarness(t, 95)
		m := h.module(t, EUDM, Container)
		if err := m.ProvisionSubscriber(ctx, testID, testK); err != nil {
			t.Fatal(err)
		}
		rec := recordLoadedKeys(m)
		client := sbi.NewClient("udm", h.env, h.registry)
		if frames {
			client.EnableBinary()
		}
		bad := *avRequest()
		bad.SUPI = "imsi-0010100000000x"
		var resp UDMGenerateAVBatchResponse
		err := client.Post(ctx, EUDM.ServiceName(), PathUDMGenerateAVBatch, &textBatch{Items: []UDMGenerateAVRequest{*avRequest(), bad}}, &resp)
		var pd *sbi.ProblemDetails
		if !errors.As(err, &pd) || pd.Status != 400 || pd.Cause != "MANDATORY_IE_INCORRECT" {
			t.Fatalf("frames %v: malformed item answered %v, want 400 MANDATORY_IE_INCORRECT", frames, err)
		}
		if loads := rec.loaded(); len(loads) != 0 {
			t.Fatalf("frames %v: the malformed batch loaded keys %q", frames, loads)
		}
		if got := regions(m.MemoryDump()); !slices.Equal(got, []string{testSUPI}) {
			t.Fatalf("frames %v: key store regions %q, want %q", frames, got, testSUPI)
		}

		if err := client.Post(ctx, EUDM.ServiceName(), PathUDMGenerateAVBatch, &textBatch{Items: []UDMGenerateAVRequest{*avRequest()}}, &resp); err != nil {
			t.Fatalf("frames %v: well-formed text batch: %v", frames, err)
		}
		if len(resp.Vectors) != 1 || resp.Vectors[0] != *directAV(t, testK, avRequest()) {
			t.Fatalf("frames %v: well-formed text batch answered %d vectors, want GenerateAV's one", frames, len(resp.Vectors))
		}
	}
}
