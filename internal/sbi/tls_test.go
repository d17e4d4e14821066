package sbi

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
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

// mtlsClient is the client `core5g -tlsdir` equips curl with: a leaf
// from issuer's IssuePEM, trusting the CA in caPEM.
func mtlsClient(t *testing.T, issuer *PKI, caPEM []byte) *http.Client {
	t.Helper()
	roots := x509.NewCertPool()
	if !roots.AppendCertsFromPEM(caPEM) {
		t.Fatal("CAPEM holds no certificate")
	}
	cfg := &tls.Config{MinVersion: tls.VersionTLS13, RootCAs: roots}
	if issuer != nil {
		certPEM, keyPEM, err := issuer.IssuePEM("ausf", nil)
		if err != nil {
			t.Fatalf("IssuePEM: %v", err)
		}
		leaf, err := tls.X509KeyPair(certPEM, keyPEM)
		if err != nil {
			t.Fatalf("X509KeyPair: %v", err)
		}
		cfg.Certificates = []tls.Certificate{leaf}
	}
	tr := &http.Transport{TLSClientConfig: cfg}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr}
}

// postEcho POSTs {"v": v} to the echo endpoint and returns the echoed value.
func postEcho(c *http.Client, url, v string) (string, error) {
	resp, err := c.Post(url+"/echo", "application/json", strings.NewReader(`{"v":"`+v+`"}`))
	if err != nil {
		return "", err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	var out struct {
		V string `json:"v"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out.V, err
}

func TestMutualTLSRoundTrip(t *testing.T) {
	pki := testPKI(t)
	ts := startMTLSServer(t, pki)

	got, err := postEcho(mtlsClient(t, pki, pki.CAPEM()), ts.URL, "mtls")
	if err != nil {
		t.Fatalf("POST over mTLS: %v", err)
	}
	if got != "mtls" {
		t.Fatalf("echo = %q", got)
	}
}

func TestMutualTLSRejectsAnonymousClient(t *testing.T) {
	pki := testPKI(t)
	ts := startMTLSServer(t, pki)

	// A client that trusts the CA but presents no certificate must be
	// refused by the mutual-auth requirement (TS 33.210).
	if _, err := postEcho(mtlsClient(t, nil, pki.CAPEM()), ts.URL, "anon"); err == nil {
		t.Fatal("anonymous client accepted")
	}
}

func TestMutualTLSRejectsForeignCA(t *testing.T) {
	pki := testPKI(t)
	other := testPKI(t)
	ts := startMTLSServer(t, pki)

	// A certificate from a different operator's CA must not verify, even
	// from a client that trusts the right server.
	if _, err := postEcho(mtlsClient(t, other, pki.CAPEM()), ts.URL, "evil"); err == nil {
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
