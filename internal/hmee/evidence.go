package hmee

import (
	"crypto/ed25519"
	"errors"
	"fmt"
)

// Attestation errors: the three ways Evidence.Verify refuses.
var (
	// ErrEvidenceSignature reports evidence the platform key did not sign:
	// tampered, or produced on another platform.
	ErrEvidenceSignature = errors.New("hmee: evidence signature invalid")
	// ErrMeasurementMismatch reports genuine evidence for an identity other
	// than the reference the verifier derived from what it built.
	ErrMeasurementMismatch = errors.New("hmee: measurement mismatch")
	// ErrStaleNonce reports genuine evidence bound to another nonce: a
	// replay of evidence captured earlier.
	ErrStaleNonce = errors.New("hmee: evidence bound to another nonce")
)

// Evidence is one TEE's attestation evidence — an SGX quote or an SNP
// report alike: the runtime's measured identity and 64 bytes of verifier
// data, signed by the platform's root key (the quoting key, the PSP key).
// Producing it charges no virtual time.
type Evidence struct {
	Measurement [32]byte
	ReportData  [64]byte
	Signature   []byte
}

// SignEvidence is the platform's half: it signs measurement and reportData
// with the platform root key.
func SignEvidence(key ed25519.PrivateKey, measurement [32]byte, reportData [64]byte) Evidence {
	ev := Evidence{Measurement: measurement, ReportData: reportData}
	ev.Signature = ed25519.Sign(key, ev.signed())
	return ev
}

func (ev *Evidence) signed() []byte {
	return append(ev.Measurement[:len(ev.Measurement):len(ev.Measurement)], ev.ReportData[:]...)
}

// Verify is the relying party's half: the evidence must be signed by
// platformKey, report the reference identity, and carry the nonce the
// verifier drew for this attestation.
func (ev *Evidence) Verify(platformKey ed25519.PublicKey, reference [32]byte, nonce [64]byte) error {
	if len(platformKey) != ed25519.PublicKeySize || !ed25519.Verify(platformKey, ev.signed(), ev.Signature) {
		return ErrEvidenceSignature
	}
	if ev.Measurement != reference {
		return fmt.Errorf("%w: got %x, want %x", ErrMeasurementMismatch, ev.Measurement[:8], reference[:8])
	}
	if ev.ReportData != nonce {
		return ErrStaleNonce
	}
	return nil
}
