package sbi

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"shield5g/internal/sbi/codec"
)

// binMsg is a test message speaking both formats.
type binMsg struct {
	Value string `json:"value"`
	Blob  []byte `json:"blob"`
}

func (m *binMsg) Fields(f *codec.Fields) {
	f.String("value", &m.Value, 0)
	f.Bytes("blob", &m.Blob, codec.Own)
}

// formatRecorder wraps a HandlerFunc and records, per call, whether the
// request body arrived as a binary frame.
type formatRecorder struct {
	frames []bool
	inner  HandlerFunc
}

func (f *formatRecorder) handle(ctx context.Context, body []byte) ([]byte, error) {
	f.frames = append(f.frames, codec.IsFrame(body))
	return f.inner(ctx, body)
}

func echoBin(_ context.Context, req *binMsg) (*binMsg, error) {
	return &binMsg{Value: req.Value, Blob: append([]byte(nil), req.Blob...)}, nil
}

// newBinaryFixture wires a dual-format server and a binary-enabled client.
func newBinaryFixture(t *testing.T) (*Registry, *Client, *formatRecorder) {
	t.Helper()
	env := newEnv()
	reg := NewRegistry()
	srv := NewServer("udm", env)
	rec := &formatRecorder{inner: BinHandler(echoBin)}
	srv.HandleDual("/auth", rec.handle)
	if err := reg.Register(srv); err != nil {
		t.Fatalf("Register: %v", err)
	}
	c := NewClient("ausf", env, reg)
	c.EnableBinary()
	return reg, c, rec
}

func postBin(t *testing.T, c *Client, value string) *binMsg {
	t.Helper()
	var resp binMsg
	req := &binMsg{Value: value, Blob: []byte{1, 2, 3}}
	if err := c.Post(context.Background(), "udm", "/auth", req, &resp); err != nil {
		t.Fatalf("Post(%q): %v", value, err)
	}
	if resp.Value != value || len(resp.Blob) != 3 {
		t.Fatalf("Post(%q) resp = %+v", value, resp)
	}
	return &resp
}

func TestBinaryClientFramesFromFirstContact(t *testing.T) {
	_, c, rec := newBinaryFixture(t)
	before := OutstandingBodies()

	postBin(t, c, "first") // opens the session, and is already a frame
	postBin(t, c, "second")
	postBin(t, c, "third")

	if len(rec.frames) != 3 {
		t.Fatalf("handler saw %d calls, want 3", len(rec.frames))
	}
	for i, frame := range rec.frames {
		if !frame {
			t.Errorf("request %d arrived as JSON from a binary client", i+1)
		}
	}
	// Every request and response body went back to the pool exactly once
	// (a second release panics in the audit).
	if n := OutstandingBodies() - before; n != 0 {
		t.Fatalf("%d pooled bodies outstanding after three round trips", n)
	}
}

func TestBinaryDisabledClientStaysJSON(t *testing.T) {
	_, c, rec := newBinaryFixture(t)
	c.mu.Lock()
	c.binary = false
	c.mu.Unlock()

	postBin(t, c, "first")
	postBin(t, c, "second")
	for i, frame := range rec.frames {
		if frame {
			t.Errorf("request %d arrived binary from a JSON-only client", i+1)
		}
	}
}

// TestPostFormatRule pins the one format rule (Client.Post): a request is
// framed iff the client is binary, the request has a field description and
// the response is nil or has one too, on first contact and later alike —
// and the server answers in whichever format it was asked in.
func TestPostFormatRule(t *testing.T) {
	shapes := []struct {
		name      string
		path      string
		req, resp func() any
		framable  bool
	}{
		{"described req, described resp", "/dd", func() any { return &binMsg{Value: "v"} }, func() any { return &binMsg{} }, true},
		{"described req, nil resp", "/dd", func() any { return &binMsg{Value: "v"} }, func() any { return nil }, true},
		{"described req, undescribed resp", "/du", func() any { return &binMsg{Value: "v"} }, func() any { return &echoResp{} }, false},
		{"undescribed req", "/uu", func() any { return &echoReq{Value: "v"} }, func() any { return &echoResp{} }, false},
	}
	for _, binary := range []bool{true, false} {
		for _, later := range []bool{false, true} {
			for _, sh := range shapes {
				name := fmt.Sprintf("binary=%v/later=%v/%s", binary, later, sh.name)
				t.Run(name, func(t *testing.T) {
					env := newEnv()
					var reqFrame, respFrame bool
					record := func(h HandlerFunc) HandlerFunc {
						return func(ctx context.Context, body []byte) ([]byte, error) {
							reqFrame = codec.IsFrame(body)
							out, err := h(ctx, body)
							respFrame = codec.IsFrame(out)
							return out, err
						}
					}
					srv := NewServer("udm", env)
					srv.HandleDual("/dd", record(BinHandler(echoBin)))
					srv.HandleDual("/du", record(BinHandler(func(_ context.Context, req *binMsg) (*echoResp, error) {
						return &echoResp{Value: req.Value}, nil
					})))
					srv.HandleDual("/uu", record(BinHandler(func(_ context.Context, req *echoReq) (*echoResp, error) {
						return &echoResp{Value: req.Value}, nil
					})))
					reg := NewRegistry()
					if err := reg.Register(srv); err != nil {
						t.Fatalf("Register: %v", err)
					}
					c := NewClient("ausf", env, reg)
					if binary {
						c.EnableBinary()
					}
					if later {
						if err := c.Post(context.Background(), "udm", "/uu", &echoReq{}, nil); err != nil {
							t.Fatalf("opening Post: %v", err)
						}
					}
					resp := sh.resp()
					if err := c.Post(context.Background(), "udm", sh.path, sh.req(), resp); err != nil {
						t.Fatalf("Post: %v", err)
					}
					switch r := resp.(type) {
					case *binMsg:
						if r.Value != "v" {
							t.Errorf("resp = %+v, want the echoed value", r)
						}
					case *echoResp:
						if r.Value != "v" {
							t.Errorf("resp = %+v, want the echoed value", r)
						}
					}
					want := binary && sh.framable
					if reqFrame != want {
						t.Errorf("handler saw frame=%v, want %v", reqFrame, want)
					}
					if respFrame != want {
						t.Errorf("handler answered frame=%v, want %v (in kind)", respFrame, want)
					}
				})
			}
		}
	}
}

func TestBinHandlerRejectsMalformedFrame(t *testing.T) {
	h := BinHandler(echoBin)
	// Valid header, garbage payload: a string length pointing past the end.
	frame := codec.AppendHeader(nil)
	frame = append(frame, 0xFF, 0xFF, 0xFF, 0xFF, 0x01)
	frame, err := codec.FinishFrame(frame)
	if err != nil {
		t.Fatalf("FinishFrame: %v", err)
	}
	_, err = h(context.Background(), frame)
	pd, ok := AsProblem(err)
	if !ok || pd.Status != 400 {
		t.Fatalf("malformed frame: err = %v, want 400 ProblemDetails", err)
	}
}

func TestBinHandlerTrailingBytesRejected(t *testing.T) {
	h := BinHandler(echoBin)
	// A frame whose payload holds more than the message's fields: the
	// handler must verify exact consumption, not silently ignore the tail.
	frame := codec.AppendHeader(nil)
	frame = codec.AppendBinary(frame, &binMsg{Value: "x", Blob: []byte{9}})
	frame = append(frame, 0xEE) // trailing junk
	frame, err := codec.FinishFrame(frame)
	if err != nil {
		t.Fatalf("FinishFrame: %v", err)
	}
	_, err = h(context.Background(), frame)
	pd, ok := AsProblem(err)
	if !ok || pd.Status != 400 {
		t.Fatalf("trailing bytes: err = %v, want 400 ProblemDetails", err)
	}
}

// keyMsg carries one fixed-width key, as the AUSF's confirmation and the
// eAMF's answer do.
type keyMsg struct {
	K codec.Bytes32 `json:"k"`
}

func (m *keyMsg) Fields(f *codec.Fields) { f.Fixed("k", m.K[:]) }

// TestBinHandlerIntoRecyclesZeroedResponse: every response BinHandlerInto
// hands its function is zero, a recycled one included, so no key a
// response carried outlives its request in the pool.
func TestBinHandlerIntoRecyclesZeroedResponse(t *testing.T) {
	seen := make(map[*keyMsg]bool)
	recycled := 0
	h := BinHandlerInto(func(_ context.Context, req, resp *keyMsg) error {
		if *resp != (keyMsg{}) {
			t.Errorf("handed a response still holding %x", resp.K)
		}
		if seen[resp] {
			recycled++
		}
		seen[resp] = true
		resp.K = req.K
		return nil
	})
	for i := range 16 {
		req := &keyMsg{K: codec.Bytes32{byte(i + 1), 0xAA}}
		jsonBody, err := MarshalBody(req)
		if err != nil {
			t.Fatalf("MarshalBody: %v", err)
		}
		frame, err := MarshalBinary(req)
		if err != nil {
			t.Fatalf("MarshalBinary: %v", err)
		}
		for _, body := range [][]byte{jsonBody, frame} {
			out, err := h(context.Background(), body)
			if err != nil {
				t.Fatalf("handler: %v", err)
			}
			var got keyMsg
			if err := DecodeBody(out, &got); err != nil || got != *req {
				t.Fatalf("answer %x (err %v), want %x", got.K, err, req.K)
			}
			ReleaseBody(out)
			ReleaseBody(body)
		}
	}
	if recycled == 0 {
		t.Fatal("no response was recycled, so none was checked after use")
	}
}

func TestDecodeBodyFormats(t *testing.T) {
	in := &binMsg{Value: "v", Blob: []byte{5, 6}}

	frame, err := MarshalBinary(in)
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	var fromFrame binMsg
	if err := DecodeBody(frame, &fromFrame); err != nil {
		t.Fatalf("DecodeBody(frame): %v", err)
	}
	jsonBody, err := MarshalBody(in)
	if err != nil {
		t.Fatalf("MarshalBody: %v", err)
	}
	var fromJSON binMsg
	if err := DecodeBody(jsonBody, &fromJSON); err != nil {
		t.Fatalf("DecodeBody(json): %v", err)
	}
	if fromFrame.Value != fromJSON.Value || string(fromFrame.Blob) != string(fromJSON.Blob) {
		t.Fatalf("frame decode %+v != json decode %+v", fromFrame, fromJSON)
	}

	// A frame aimed at a type without a binary codec is an error, not a
	// silent misparse.
	var plain echoResp
	if err := DecodeBody(frame, &plain); err == nil {
		t.Fatalf("DecodeBody(frame, no codec) succeeded")
	}
}

func TestMarshalBinaryOversized(t *testing.T) {
	huge := &binMsg{Blob: make([]byte, codec.MaxPayload+1)}
	if _, err := MarshalBinary(huge); !errors.Is(err, codec.ErrOversized) {
		t.Fatalf("err = %v, want ErrOversized", err)
	}
}
