package sbi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/simclock"
)

type echoReq struct {
	Value string `json:"value"`
}

type echoResp struct {
	Value string `json:"value"`
	From  string `json:"from"`
}

func newEnv() *costmodel.Env { return costmodel.NewEnv(nil, 1) }

func echoServer(t *testing.T, env *costmodel.Env) *Server {
	t.Helper()
	s := NewServer("udm", env)
	s.HandleDual("/echo", BinHandler(func(_ context.Context, req *echoReq) (*echoResp, error) {
		return &echoResp{Value: req.Value, From: "udm"}, nil
	}))
	s.HandleDual("/fail", BinHandler(func(_ context.Context, _ *echoReq) (*echoResp, error) {
		return nil, Problem(403, "Forbidden", "AUTHENTICATION_REJECTED", "no")
	}))
	s.HandleDual("/boom", func(_ context.Context, _ []byte) ([]byte, error) {
		return nil, errors.New("plain failure")
	})
	return s
}

func TestInProcessPostRoundTrip(t *testing.T) {
	env := newEnv()
	reg := NewRegistry()
	if err := reg.Register(echoServer(t, env)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	c := NewClient("ausf", env, reg)
	var resp echoResp
	if err := c.Post(context.Background(), "udm", "/echo", &echoReq{Value: "hi"}, &resp); err != nil {
		t.Fatalf("Post: %v", err)
	}
	if resp.Value != "hi" || resp.From != "udm" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestInProcessChargesVirtualTime(t *testing.T) {
	env := newEnv()
	reg := NewRegistry()
	if err := reg.Register(echoServer(t, env)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	c := NewClient("ausf", env, reg)

	post := func() simclock.Cycles {
		var acct simclock.Account
		ctx := simclock.WithAccount(context.Background(), &acct)
		if err := c.Post(ctx, "udm", "/echo", &echoReq{Value: "hi"}, nil); err != nil {
			t.Fatalf("Post: %v", err)
		}
		return acct.Total()
	}
	first := post()
	second := post()
	if first == 0 || second == 0 {
		t.Fatal("no cycles charged")
	}
	// First contact includes the mutual TLS handshake.
	if first <= second {
		t.Fatalf("first call (%d) not above warm call (%d)", first, second)
	}
	hs := env.Model.TLSHandshakeClient + env.Model.TLSHandshakeServer
	if first-second < hs/2 {
		t.Fatalf("handshake cost not visible: delta=%d", first-second)
	}
}

func TestProblemDetailsPreserved(t *testing.T) {
	env := newEnv()
	reg := NewRegistry()
	if err := reg.Register(echoServer(t, env)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	c := NewClient("ausf", env, reg)
	err := c.Post(context.Background(), "udm", "/fail", &echoReq{}, nil)
	var pd *ProblemDetails
	if !errors.As(err, &pd) {
		t.Fatalf("err = %v, want ProblemDetails", err)
	}
	if pd.Status != 403 || pd.Cause != "AUTHENTICATION_REJECTED" {
		t.Fatalf("pd = %+v", pd)
	}
	if !strings.Contains(pd.Error(), "403") {
		t.Fatalf("Error() = %q", pd.Error())
	}
}

func TestPlainErrorBecomes500(t *testing.T) {
	env := newEnv()
	reg := NewRegistry()
	if err := reg.Register(echoServer(t, env)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	c := NewClient("ausf", env, reg)
	err := c.Post(context.Background(), "udm", "/boom", &echoReq{}, nil)
	var pd *ProblemDetails
	if !errors.As(err, &pd) || pd.Status != 500 {
		t.Fatalf("err = %v, want 500 ProblemDetails", err)
	}
}

func TestUnknownServiceAndPath(t *testing.T) {
	env := newEnv()
	reg := NewRegistry()
	if err := reg.Register(echoServer(t, env)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	c := NewClient("ausf", env, reg)

	err := c.Post(context.Background(), "missing", "/echo", &echoReq{}, nil)
	var pd *ProblemDetails
	if !errors.As(err, &pd) || pd.Status != 503 {
		t.Fatalf("unknown service err = %v", err)
	}
	err = c.Post(context.Background(), "udm", "/nope", &echoReq{}, nil)
	if !errors.As(err, &pd) || pd.Status != 404 {
		t.Fatalf("unknown path err = %v", err)
	}
}

func TestRegistryDuplicateAndDeregister(t *testing.T) {
	env := newEnv()
	reg := NewRegistry()
	s := NewServer("udm", env)
	if err := reg.Register(s); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := reg.Register(NewServer("udm", env)); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := reg.Register(nil); err == nil {
		t.Fatal("nil server accepted")
	}
	if got := reg.Names(); len(got) != 1 || got[0] != "udm" {
		t.Fatalf("Names = %v", got)
	}
	reg.Deregister("udm")
	if _, ok := reg.Lookup("udm"); ok {
		t.Fatal("deregistered service still resolvable")
	}
}

func TestServerPaths(t *testing.T) {
	env := newEnv()
	s := echoServer(t, env)
	if got := len(s.Paths()); got != 3 {
		t.Fatalf("Paths = %d, want 3", got)
	}
}

func TestBinHandlerBadBody(t *testing.T) {
	h := BinHandler(func(_ context.Context, req *echoReq) (*echoResp, error) {
		return &echoResp{Value: req.Value}, nil
	})
	_, err := h(context.Background(), []byte("{broken"))
	var pd *ProblemDetails
	if !errors.As(err, &pd) || pd.Status != 400 {
		t.Fatalf("bad body err = %v", err)
	}
	// Empty body decodes as zero request.
	out, err := h(context.Background(), nil)
	if err != nil || len(out) == 0 {
		t.Fatalf("empty body: %v %q", err, out)
	}
}

// TestHTTPTransportRoundTrip: a 200 with a plain and with a described
// message, a 4xx problem, an unknown service and a transport error, after
// which no pooled body is outstanding on either side of the wire — the
// HTTP client draws none for its request and the server releases every
// response it wrote.
func TestHTTPTransportRoundTrip(t *testing.T) {
	before := outstandingBodies()
	env := newEnv()
	srv := echoServer(t, env)
	srv.HandleDual("/auth", BinHandler(echoBin))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c := NewHTTPClient(nil)
	c.SetBase("udm", ts.URL)

	var resp echoResp
	if err := c.Post(context.Background(), "udm", "/echo", &echoReq{Value: "ota"}, &resp); err != nil {
		t.Fatalf("Post: %v", err)
	}
	if resp.Value != "ota" {
		t.Fatalf("resp = %+v", resp)
	}
	var described binMsg
	if err := c.Post(context.Background(), "udm", "/auth", &binMsg{Value: "av", Blob: []byte{7, 8}}, &described); err != nil {
		t.Fatalf("Post of a described message: %v", err)
	}
	if described.Value != "av" || !bytes.Equal(described.Blob, []byte{7, 8}) {
		t.Fatalf("described resp = %+v", described)
	}

	// ProblemDetails survive HTTP.
	err := c.Post(context.Background(), "udm", "/fail", &echoReq{}, nil)
	var pd *ProblemDetails
	if !errors.As(err, &pd) || pd.Status != 403 {
		t.Fatalf("HTTP problem err = %v", err)
	}

	// Unknown service.
	if err := c.Post(context.Background(), "ghost", "/echo", &echoReq{}, nil); err == nil {
		t.Fatal("unknown base accepted")
	}

	// Transport error: nobody listens any more. Close also waits for the
	// server side of the requests above to finish.
	ts.Close()
	if err := c.Post(context.Background(), "udm", "/echo", &echoReq{Value: "late"}, &resp); err == nil {
		t.Fatal("Post to a closed server succeeded")
	} else if _, ok := AsProblem(err); ok {
		t.Fatalf("transport error surfaced as a ProblemDetails: %v", err)
	}
	if n := outstandingBodies() - before; n != 0 {
		t.Fatalf("%d pooled bodies outstanding after the HTTP round trips, want 0", n)
	}
}

// TestHTTPTransportRejectsFrame: the HTTP edge speaks JSON only — a binary
// frame is answered 415 problem+json before any handler runs.
func TestHTTPTransportRejectsFrame(t *testing.T) {
	called := false
	srv := NewServer("udm", newEnv())
	srv.HandleDual("/auth", BinHandler(func(ctx context.Context, req *binMsg) (*binMsg, error) {
		called = true
		return echoBin(ctx, req)
	}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	frame, err := MarshalBinary(&binMsg{Value: "x"})
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	resp, err := ts.Client().Post(ts.URL+"/auth", "application/json", bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	var pd ProblemDetails
	if err := json.NewDecoder(resp.Body).Decode(&pd); err != nil {
		t.Fatalf("decode problem body: %v", err)
	}
	if resp.StatusCode != 415 || resp.Header.Get("Content-Type") != "application/problem+json" ||
		pd.Status != 415 || pd.Cause != CauseUnsupportedMedia {
		t.Fatalf("frame over HTTP: status %d, type %q, problem %+v; want 415 %s",
			resp.StatusCode, resp.Header.Get("Content-Type"), pd, CauseUnsupportedMedia)
	}
	if called {
		t.Fatal("handler ran on a frame POSTed over HTTP")
	}
}

func TestHTTPTransportMethodNotAllowed(t *testing.T) {
	env := newEnv()
	ts := httptest.NewServer(echoServer(t, env))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/echo")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != 405 {
		t.Fatalf("GET status = %d, want 405", resp.StatusCode)
	}
}
