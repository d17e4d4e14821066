package sbi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
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

// postHTTP POSTs req as JSON to url+path with a plain net/http client and
// decodes a 200 body into resp, any other into the returned problem.
func postHTTP(t *testing.T, url, path string, req, resp any) (*http.Response, ProblemDetails) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	hr, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer func() { _ = hr.Body.Close() }()
	var pd ProblemDetails
	out := resp
	if hr.StatusCode != http.StatusOK {
		out = &pd
	}
	if out != nil {
		if err := json.NewDecoder(hr.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode %d body: %v", path, hr.StatusCode, err)
		}
	}
	return hr, pd
}

// TestHTTPTransportRoundTrip: a 200 with a plain and with a described
// message, a 4xx problem and an unknown path over the HTTP edge, after
// which the server has released every response body it wrote.
func TestHTTPTransportRoundTrip(t *testing.T) {
	before := outstandingBodies()
	env := newEnv()
	srv := echoServer(t, env)
	srv.HandleDual("/auth", BinHandler(echoBin))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var resp echoResp
	if hr, pd := postHTTP(t, ts.URL, "/echo", &echoReq{Value: "ota"}, &resp); hr.StatusCode != 200 ||
		hr.Header.Get("Content-Type") != "application/json" || resp.Value != "ota" || resp.From != "udm" {
		t.Fatalf("echo: status %d, type %q, resp %+v, problem %+v",
			hr.StatusCode, hr.Header.Get("Content-Type"), resp, pd)
	}
	var described binMsg
	if hr, pd := postHTTP(t, ts.URL, "/auth", &binMsg{Value: "av", Blob: []byte{7, 8}}, &described); hr.StatusCode != 200 ||
		described.Value != "av" || !bytes.Equal(described.Blob, []byte{7, 8}) {
		t.Fatalf("described message: status %d, resp %+v, problem %+v", hr.StatusCode, described, pd)
	}

	// ProblemDetails survive HTTP: status line and body agree.
	for _, tc := range []struct {
		path   string
		status int
		cause  string
	}{{"/fail", 403, "AUTHENTICATION_REJECTED"}, {"/nope", 404, "RESOURCE_NOT_FOUND"}} {
		hr, pd := postHTTP(t, ts.URL, tc.path, &echoReq{}, nil)
		if hr.StatusCode != tc.status || hr.Header.Get("Content-Type") != "application/problem+json" ||
			pd.Status != tc.status || pd.Cause != tc.cause {
			t.Fatalf("%s: status %d, type %q, problem %+v; want %d %s",
				tc.path, hr.StatusCode, hr.Header.Get("Content-Type"), pd, tc.status, tc.cause)
		}
	}

	// Close waits for the server side of the requests above to finish.
	ts.Close()
	if n := outstandingBodies() - before; n != 0 {
		t.Fatalf("%d pooled bodies outstanding after the HTTP round trips, want 0", n)
	}
}

// TestHTTPTransportStampsOCI: an armed, metered server stamps its current
// overload advert as a 3gpp-Sbi-Oci header on the 200 it serves and on the
// 503 it sheds with; an unarmed one stamps none.
func TestHTTPTransportStampsOCI(t *testing.T) {
	env := newEnv()
	srv := echoServer(t, env)
	srv.EnableOverload(env, OverloadConfig{ServiceCycles: 1000, MaxQueue: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if hr, _ := postHTTP(t, ts.URL, "/echo", &echoReq{Value: "x"}, &echoResp{}); hr.Header.Get(OCIHeader) != "" {
		t.Fatalf("unarmed server stamped %s: %q", OCIHeader, hr.Header.Get(OCIHeader))
	}
	srv.SetOverloadArmed(true)
	// Unstamped arrivals join at the watermark and never drain: the first
	// fills the one-deep queue, the second is shed.
	for _, want := range []int{200, 503} {
		hr, pd := postHTTP(t, ts.URL, "/echo", &echoReq{Value: "x"}, &echoResp{})
		if hr.StatusCode != want {
			t.Fatalf("status %d, want %d (problem %+v)", hr.StatusCode, want, pd)
		}
		if want == 503 && pd.Cause != CauseOverload {
			t.Fatalf("shed problem = %+v, want %s", pd, CauseOverload)
		}
		var got OCI
		if err := json.Unmarshal([]byte(hr.Header.Get(OCIHeader)), &got); err != nil {
			t.Fatalf("%d: %s header %q: %v", want, OCIHeader, hr.Header.Get(OCIHeader), err)
		}
		if cur, ok := srv.CurrentOCI(); !ok || got != cur {
			t.Fatalf("%d: %s header = %+v, CurrentOCI = %+v (%v)", want, OCIHeader, got, cur, ok)
		}
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
