package sbi

import (
	"context"
	"errors"
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

func TestBinaryNegotiationSwitchesAfterFirstContact(t *testing.T) {
	_, c, rec := newBinaryFixture(t)

	postBin(t, c, "first")  // session open: negotiation rides it, body is JSON
	postBin(t, c, "second") // negotiated: binary frame
	postBin(t, c, "third")

	want := []bool{false, true, true}
	if len(rec.frames) != len(want) {
		t.Fatalf("handler saw %d calls, want %d", len(rec.frames), len(want))
	}
	for i, frame := range want {
		if rec.frames[i] != frame {
			t.Errorf("request %d binary=%v, want %v", i+1, rec.frames[i], frame)
		}
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

// TestBinaryFallbackMidFleet models the stale-negotiation failure: the
// peer restarts binary-incapable after the client negotiated frames. The
// server answers 415, the client downgrades that path to JSON, retries
// once, and stays on JSON afterwards.
func TestBinaryFallbackMidFleet(t *testing.T) {
	reg, c, _ := newBinaryFixture(t)

	postBin(t, c, "first")
	postBin(t, c, "second") // now negotiated to binary

	// The UDM "restarts" without its binary endpoints: same service name,
	// JSON-only registration. The client's negotiation snapshot is stale.
	reg.Deregister("udm")
	jsonOnly := NewServer("udm", newEnv())
	rec := &formatRecorder{inner: JSONHandler(echoBin)}
	jsonOnly.Handle("/auth", rec.handle)
	if err := reg.Register(jsonOnly); err != nil {
		t.Fatalf("Register: %v", err)
	}

	// The next Post sends a frame, gets 415 before the handler runs,
	// downgrades, and succeeds on the JSON retry — the caller never sees
	// the stale negotiation.
	postBin(t, c, "third")
	// Subsequent requests go straight to JSON: the path was evicted from
	// the negotiation snapshot.
	postBin(t, c, "fourth")

	if len(rec.frames) != 2 {
		t.Fatalf("restarted handler saw %d calls, want 2 (415 is pre-dispatch)", len(rec.frames))
	}
	for i, frame := range rec.frames {
		if frame {
			t.Errorf("restarted JSON-only handler saw a binary frame on call %d", i+1)
		}
	}
	c.mu.Lock()
	stillNegotiated := c.negotiated["udm"]["/auth"]
	c.mu.Unlock()
	if stillNegotiated {
		t.Errorf("/auth still marked binary-capable after 415 downgrade")
	}
}

func TestServe415OnUnnegotiatedFrame(t *testing.T) {
	env := newEnv()
	srv := NewServer("udm", env)
	srv.Handle("/auth", JSONHandler(echoBin)) // JSON-only path

	frame, err := MarshalBinary(&binMsg{Value: "x"})
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	_, err = srv.serve(context.Background(), "/auth", frame)
	if !HasCause(err, CauseUnsupportedMedia) {
		t.Fatalf("serve frame on JSON path: err = %v, want cause %s", err, CauseUnsupportedMedia)
	}
	pd, _ := AsProblem(err)
	if pd.Status != 415 {
		t.Fatalf("status = %d, want 415", pd.Status)
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
