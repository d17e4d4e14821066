package hmee_test

import (
	"context"
	"crypto/ed25519"
	"errors"
	"testing"

	"shield5g/internal/costmodel"
	"shield5g/internal/hmee"
	"shield5g/internal/hmee/sev"
	"shield5g/internal/hmee/sgx"
)

// attester is one TEE under test: the platform key its evidence must be
// signed by, the reference its recipe yields, a fresh attestation, and a
// restart that redeploys the same recipe on the same platform.
type attester struct {
	root      ed25519.PublicKey
	reference [32]byte
	attest    func(nonce [64]byte) (hmee.Evidence, error)
	restart   func()
}

func sgxAttester(t *testing.T) attester {
	t.Helper()
	p, err := sgx.NewPlatform(sgx.PlatformConfig{Seed: 1})
	if err != nil {
		t.Fatalf("sgx.NewPlatform: %v", err)
	}
	cfg := sgx.EnclaveConfig{Name: "eudm", SizeBytes: 1 << 20, MaxThreads: 4,
		TrustedFiles: []sgx.MeasuredFile{{Path: "file:/app/eudm", Size: 4096}}}
	build := func() *sgx.Enclave {
		e, err := p.Build(context.Background(), cfg)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return e
	}
	e := build()
	t.Cleanup(func() { e.Destroy() })
	return attester{
		root:      p.QuotingPublicKey(),
		reference: sgx.Measure(cfg),
		attest:    func(n [64]byte) (hmee.Evidence, error) { return e.GenerateQuote(n) },
		restart:   func() { e.Destroy(); e = build() },
	}
}

func sevAttester(t *testing.T) attester {
	t.Helper()
	host := sev.NewPlatform()
	env := costmodel.NewEnv(nil, 1)
	cfg := sev.Config{Name: "eudm-vm", AppImageBytes: 1 << 20}
	launch := func() *sev.Machine {
		m, err := host.Launch(context.Background(), env, cfg)
		if err != nil {
			t.Fatalf("Launch: %v", err)
		}
		return m
	}
	m := launch()
	t.Cleanup(func() { m.Shutdown(context.Background()) })
	return attester{
		root:      host.PublicKey(),
		reference: sev.Measure(cfg),
		attest:    func(n [64]byte) (hmee.Evidence, error) { return m.GenerateReport(n) },
		restart:   func() { m.Shutdown(context.Background()); m = launch() },
	}
}

// TestEvidenceVerify holds both TEEs' evidence to one contract: genuine
// evidence over the verifier's nonce verifies against the platform key and
// the recipe's reference; tampered evidence, another platform's key, another
// reference and evidence captured before a restart are each refused with
// their own error.
func TestEvidenceVerify(t *testing.T) {
	foreign, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	nonce := [64]byte{1, 2, 3}
	later := [64]byte{4, 5, 6}
	cases := []struct {
		name string
		// verify attests (or replays) and verifies the way the case says.
		verify func(a attester) error
		want   error
	}{
		{"genuine", func(a attester) error {
			ev, err := a.attest(nonce)
			if err != nil {
				return err
			}
			return ev.Verify(a.root, a.reference, nonce)
		}, nil},
		{"tampered", func(a attester) error {
			ev, err := a.attest(nonce)
			if err != nil {
				return err
			}
			ev.ReportData[0] ^= 1
			return ev.Verify(a.root, a.reference, ev.ReportData)
		}, hmee.ErrEvidenceSignature},
		{"wrong key", func(a attester) error {
			ev, err := a.attest(nonce)
			if err != nil {
				return err
			}
			return ev.Verify(foreign, a.reference, nonce)
		}, hmee.ErrEvidenceSignature},
		{"no key", func(a attester) error {
			ev, err := a.attest(nonce)
			if err != nil {
				return err
			}
			return ev.Verify(nil, a.reference, nonce)
		}, hmee.ErrEvidenceSignature},
		{"wrong reference", func(a attester) error {
			ev, err := a.attest(nonce)
			if err != nil {
				return err
			}
			return ev.Verify(a.root, [32]byte{1}, nonce)
		}, hmee.ErrMeasurementMismatch},
		{"captured before restart", func(a attester) error {
			ev, err := a.attest(nonce)
			if err != nil {
				return err
			}
			a.restart()
			if _, err := a.attest(later); err != nil {
				return err
			}
			return ev.Verify(a.root, a.reference, later)
		}, hmee.ErrStaleNonce},
	}
	for _, tee := range []struct {
		name string
		new  func(*testing.T) attester
	}{{"sgx", sgxAttester}, {"sev", sevAttester}} {
		for _, tc := range cases {
			t.Run(tee.name+"/"+tc.name, func(t *testing.T) {
				err := tc.verify(tee.new(t))
				if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
					t.Fatalf("Verify = %v, want %v", err, tc.want)
				}
			})
		}
	}
}
