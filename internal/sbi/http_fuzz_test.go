package sbi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"shield5g/internal/sbi/codec"
)

// FuzzServeHTTP posts hostile method, path and body triples to the HTTP
// edge of a server with one typed JSON endpoint (testdata/fuzz/FuzzServeHTTP
// holds the seeds). ServeHTTP must never panic; every answer other than 200
// is ProblemDetails JSON whose status matches the HTTP status; a POSTed
// frame-shaped body is turned away with 415; and every pooled body the
// request took is back in the pool when it returns.
func FuzzServeHTTP(f *testing.F) {
	srv := NewServer("udm", newEnv())
	srv.HandleDual("/echo", BinHandler(func(_ context.Context, req *echoReq) (*echoResp, error) {
		return &echoResp{Value: req.Value, From: "udm"}, nil
	}))
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		// Built by hand, not with httptest.NewRequest, which panics on a
		// method or target net/http would have refused before ServeHTTP.
		req := (&http.Request{
			Method: method,
			URL:    &url.URL{Path: path},
			Header: make(http.Header),
			Body:   io.NopCloser(bytes.NewReader(body)),
		}).WithContext(context.Background())
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}

	// The properties must not hold vacuously: the valid seed succeeds.
	if rec := serve(http.MethodPost, "/echo", []byte(`{"value":"hi"}`)); rec.Code != 200 {
		f.Fatalf("valid seed answered %d: %s", rec.Code, rec.Body)
	}

	f.Fuzz(func(t *testing.T, method, path string, body []byte) {
		before := OutstandingBodies()
		rec := serve(method, path, body)
		if n := OutstandingBodies() - before; n != 0 {
			t.Fatalf("%s %q: %d pooled bodies outstanding", method, path, n)
		}
		if method == http.MethodPost && codec.IsFrame(body) && rec.Code != 415 {
			t.Fatalf("POST %q with a frame-shaped body answered %d, want 415", path, rec.Code)
		}
		if rec.Code == 200 {
			return
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/problem+json" {
			t.Fatalf("%s %q answered %d with Content-Type %q, want problem+json", method, path, rec.Code, ct)
		}
		var pd ProblemDetails
		if err := json.Unmarshal(rec.Body.Bytes(), &pd); err != nil {
			t.Fatalf("%s %q answered %d with a body that is not ProblemDetails: %v", method, path, rec.Code, err)
		}
		if pd.Status != rec.Code {
			t.Fatalf("%s %q: ProblemDetails status %d, HTTP status %d", method, path, pd.Status, rec.Code)
		}
	})
}
