package deploy

import (
	"context"
	"crypto/ed25519"
	"errors"
	"testing"

	"shield5g/internal/crypto/suci"
	"shield5g/internal/hmee"
	"shield5g/internal/hmee/sev"
	"shield5g/internal/paka"
)

// swapEUDM replaces shard 0's eUDM with a module deployed from cfg under the
// same service name: what a host that controls deployment could run in the
// genuine module's place.
func swapEUDM(t *testing.T, s *Slice, cfg paka.Config) *paka.Module {
	t.Helper()
	s.Shards[0].Modules[paka.EUDM].Stop(context.Background())
	m, err := paka.New(context.Background(), cfg)
	if err != nil {
		t.Fatalf("deploy substitute eUDM: %v", err)
	}
	s.Shards[0].Modules[paka.EUDM] = m
	return m
}

// provisionRefused provisions one subscriber and checks that the slice
// refuses with want and that the substitute eUDM never received K.
func provisionRefused(t *testing.T, s *Slice, substitute *paka.Module, want error) {
	t.Helper()
	supi := suci.SUPI{MCC: "001", MNC: "01", MSIN: "0000036001"}
	err := s.ProvisionSubscriber(context.Background(), supi, []byte("never-released-k"), make([]byte, 16))
	if !errors.Is(err, want) {
		t.Fatalf("ProvisionSubscriber to a substitute eUDM: err = %v, want %v", err, want)
	}
	if dump := substitute.MemoryDump(); len(dump) != 0 {
		t.Fatalf("substitute eUDM holds %d key(s) after a refused attestation", len(dump))
	}
}

// TestForeignEUDMIsRefused: an eUDM built with one more library in its
// image and signed with a key that is not the operator's attests genuinely
// on the slice's own platform, but to an identity the slice never built.
// The slice must not release K to it.
func TestForeignEUDMIsRefused(t *testing.T) {
	s := newSliceWith(t, SliceConfig{Isolation: paka.SGX, Seed: 36})
	_, foreignKey, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.moduleConfig(paka.EUDM, 0, foreignKey)
	cfg.UserLevelTCP = true
	provisionRefused(t, s, swapEUDM(t, s, cfg), hmee.ErrMeasurementMismatch)
}

// TestSEVEUDMOnAnotherHostIsRefused: the slice's own eUDM recipe launched
// on another SEV platform reports the right launch digest, but its report
// is not signed by the slice's PSP key.
func TestSEVEUDMOnAnotherHostIsRefused(t *testing.T) {
	s := newSliceWith(t, SliceConfig{Isolation: paka.SEV, Seed: 36})
	cfg := s.moduleConfig(paka.EUDM, 0, nil)
	cfg.SEVHost = sev.NewPlatform()
	provisionRefused(t, s, swapEUDM(t, s, cfg), hmee.ErrEvidenceSignature)
}
