package sbi

import (
	"context"
	"crypto/tls"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func testPKI(t *testing.T) *PKI {
	t.Helper()
	pki, err := NewPKI("test-operator", time.Hour)
	if err != nil {
		t.Fatalf("NewPKI: %v", err)
	}
	return pki
}

// startMTLSServer exposes an echo SBI server over mutual TLS.
func startMTLSServer(t *testing.T, pki *PKI) *httptest.Server {
	t.Helper()
	srv := NewServer("udm", nil)
	srv.HandleDual("/echo", BinHandler(func(_ context.Context, req *struct {
		V string `json:"v"`
	}) (*struct {
		V string `json:"v"`
	}, error) {
		return &struct {
			V string `json:"v"`
		}{V: req.V}, nil
	}))

	ts := httptest.NewUnstartedServer(srv)
	cfg, err := pki.ServerTLS("udm", []string{"127.0.0.1"})
	if err != nil {
		t.Fatalf("ServerTLS: %v", err)
	}
	ts.TLS = cfg
	ts.StartTLS()
	t.Cleanup(ts.Close)
	return ts
}

func TestMutualTLSRoundTrip(t *testing.T) {
	pki := testPKI(t)
	ts := startMTLSServer(t, pki)

	clientCfg, err := pki.ClientTLS("ausf")
	if err != nil {
		t.Fatalf("ClientTLS: %v", err)
	}
	hc := &http.Client{Transport: &http.Transport{TLSClientConfig: clientCfg}}
	c := NewHTTPClient(hc)
	c.SetBase("udm", ts.URL)

	var resp struct {
		V string `json:"v"`
	}
	if err := c.Post(context.Background(), "udm", "/echo", &struct {
		V string `json:"v"`
	}{V: "mtls"}, &resp); err != nil {
		t.Fatalf("Post over mTLS: %v", err)
	}
	if resp.V != "mtls" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestMutualTLSRejectsAnonymousClient(t *testing.T) {
	pki := testPKI(t)
	ts := startMTLSServer(t, pki)

	// A client that trusts the CA but presents no certificate must be
	// refused by the mutual-auth requirement (TS 33.210).
	anon := &http.Client{Transport: &http.Transport{TLSClientConfig: &tls.Config{
		MinVersion: tls.VersionTLS13,
		RootCAs:    pki.pool,
	}}}
	c := NewHTTPClient(anon)
	c.SetBase("udm", ts.URL)
	if err := c.Post(context.Background(), "udm", "/echo", &struct{}{}, nil); err == nil {
		t.Fatal("anonymous client accepted")
	}
}

func TestMutualTLSRejectsForeignCA(t *testing.T) {
	pki := testPKI(t)
	other := testPKI(t)
	ts := startMTLSServer(t, pki)

	// A certificate from a different operator's CA must not verify.
	foreignCfg, err := other.ClientTLS("evil")
	if err != nil {
		t.Fatalf("ClientTLS: %v", err)
	}
	foreignCfg.RootCAs = pki.pool // trusts the right server, wrong identity
	hc := &http.Client{Transport: &http.Transport{TLSClientConfig: foreignCfg}}
	c := NewHTTPClient(hc)
	c.SetBase("udm", ts.URL)
	if err := c.Post(context.Background(), "udm", "/echo", &struct{}{}, nil); err == nil {
		t.Fatal("foreign-CA client accepted")
	}
}

func TestNewPKIDefaults(t *testing.T) {
	pki, err := NewPKI("op", 0)
	if err != nil {
		t.Fatalf("NewPKI: %v", err)
	}
	if pki.caCert.NotAfter.Before(time.Now().Add(12 * time.Hour)) {
		t.Fatal("default lifetime too short")
	}
	if !pki.caCert.IsCA {
		t.Fatal("CA cert not marked CA")
	}
}
