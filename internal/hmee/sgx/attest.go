package sgx

import (
	"crypto/sha256"
	"fmt"

	"shield5g/internal/hmee"
)

// Measure is the MRENCLAVE an enclave built from cfg reports: the
// configuration and every trusted file, hashed in order the way
// EADD/EEXTEND fold page contents into the measurement. It is a pure
// function of the build recipe, so a verifier derives the reference value
// from what it built and a signer signs it as SIGSTRUCT signs ENCLAVEHASH.
func Measure(cfg EnclaveConfig) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "enclave:%s:size=%d:threads=%d:preheat=%v",
		cfg.Name, cfg.SizeBytes, cfg.MaxThreads, cfg.Preheat)
	if cfg.Switchless {
		// Folded only when enabled so that switchless-off enclaves keep
		// the identities sealed data and goldens were produced under.
		fmt.Fprintf(h, ":switchless=true")
	}
	for _, f := range cfg.TrustedFiles {
		d := f.digest()
		h.Write(d[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// GenerateQuote produces the enclave's attestation evidence: its
// measurement and reportData, signed by the platform quoting key (the
// Quoting Enclave's attestation key). A verifier holding the platform's
// public key learns that exactly this code, on a genuine (simulated)
// platform, produced the data.
func (e *Enclave) GenerateQuote(reportData [64]byte) (hmee.Evidence, error) {
	if err := e.live(); err != nil {
		return hmee.Evidence{}, err
	}
	return hmee.SignEvidence(e.platform.qePriv, e.measurement, reportData), nil
}
