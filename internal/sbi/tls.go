//shieldlint:wallclock audited 2026-08: certificate NotBefore/NotAfter are real PKI
// lifetimes consumed by crypto/tls in the runnable binaries; they never feed the
// simulated cost model, so the virtual clock does not apply to this file.

package sbi

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"fmt"
	"math/big"
	"net"
	"time"
)

// PKI is an ephemeral operator certificate authority for the SBI: 3GPP
// TS 33.210 requires mutual TLS between network functions, and the paper's
// P-AKA modules speak HTTPS. `core5g -serve -tlsdir` uses this to serve
// the SBI over real mTLS and to issue curl's credentials; the in-process
// transport models the same costs instead.
type PKI struct {
	caCert *x509.Certificate
	caKey  *ecdsa.PrivateKey
	pool   *x509.CertPool
}

// NewPKI creates an operator CA valid for the given lifetime.
func NewPKI(operator string, lifetime time.Duration) (*PKI, error) {
	if lifetime <= 0 {
		lifetime = 24 * time.Hour
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("sbi: generate CA key: %w", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: operator + " SBI CA", Organization: []string{operator}},
		NotBefore:             time.Now().Add(-time.Minute),
		NotAfter:              time.Now().Add(lifetime),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("sbi: create CA certificate: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("sbi: parse CA certificate: %w", err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(cert)
	return &PKI{caCert: cert, caKey: key, pool: pool}, nil
}

// issue creates a leaf certificate for one NF instance.
func (p *PKI) issue(commonName string, hosts []string) (tls.Certificate, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("sbi: generate leaf key: %w", err)
	}
	serial, err := rand.Int(rand.Reader, big.NewInt(1<<62))
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("sbi: serial: %w", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: serial,
		Subject:      pkix.Name{CommonName: commonName},
		NotBefore:    time.Now().Add(-time.Minute),
		NotAfter:     p.caCert.NotAfter,
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth, x509.ExtKeyUsageClientAuth},
	}
	for _, h := range hosts {
		if ip := net.ParseIP(h); ip != nil {
			tmpl.IPAddresses = append(tmpl.IPAddresses, ip)
		} else {
			tmpl.DNSNames = append(tmpl.DNSNames, h)
		}
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, p.caCert, &key.PublicKey, p.caKey)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("sbi: create leaf certificate: %w", err)
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}, nil
}

// CAPEM exports the operator CA certificate for client tooling (curl
// --cacert).
func (p *PKI) CAPEM() []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: p.caCert.Raw})
}

// IssuePEM issues a leaf for external tooling and returns its certificate
// and key as PEM (curl --cert/--key).
func (p *PKI) IssuePEM(commonName string, hosts []string) (certPEM, keyPEM []byte, err error) {
	leaf, err := p.issue(commonName, hosts)
	if err != nil {
		return nil, nil, err
	}
	certPEM = pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: leaf.Certificate[0]})
	keyDER, err := x509.MarshalECPrivateKey(leaf.PrivateKey.(*ecdsa.PrivateKey))
	if err != nil {
		return nil, nil, fmt.Errorf("sbi: marshal leaf key: %w", err)
	}
	keyPEM = pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER})
	return certPEM, keyPEM, nil
}

// ServerTLS returns an mTLS server configuration for an NF: it presents
// its own leaf and requires a client certificate chained to the operator
// CA.
func (p *PKI) ServerTLS(nfName string, hosts []string) (*tls.Config, error) {
	leaf, err := p.issue(nfName, hosts)
	if err != nil {
		return nil, err
	}
	return &tls.Config{
		MinVersion:   tls.VersionTLS13,
		Certificates: []tls.Certificate{leaf},
		ClientAuth:   tls.RequireAndVerifyClientCert,
		ClientCAs:    p.pool,
	}, nil
}
