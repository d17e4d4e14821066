package sgx

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"maps"
)

// ErrUnseal reports sealed data that cannot be opened by this enclave —
// wrong platform, wrong enclave identity, or tampered ciphertext.
var ErrUnseal = errors.New("sgx: unseal failed")

// newSealAEAD builds the enclave's sealing AEAD. Its key is bound to both
// the platform root (CPU fuse key analogue) and the enclave measurement
// (MRENCLAVE policy), so only the same code on the same machine can
// unseal. Both are fixed for the life of the Enclave object — a restart
// builds a new one — so Build derives it once.
func (e *Enclave) newSealAEAD() cipher.AEAD {
	mac := hmac.New(sha256.New, e.platform.sealRoot[:])
	mac.Write([]byte("seal"))
	mac.Write(e.measurement[:])
	block, err := aes.NewCipher(mac.Sum(nil)[:16])
	if err != nil {
		panic(fmt.Sprintf("sgx: seal cipher: %v", err)) // a 16-byte key is always valid
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(fmt.Sprintf("sgx: seal AEAD: %v", err)) // AES has the block size GCM needs
	}
	return aead
}

// Seal encrypts data so that only an enclave with the same measurement on
// the same platform can recover it. This is the mechanism the paper points
// to for Key Issue 27: shipping NF container images without plaintext
// credentials.
func (e *Enclave) Seal(plaintext, additionalData []byte) ([]byte, error) {
	if err := e.live(); err != nil {
		return nil, err
	}
	aead := e.seal
	// The blob is nonce || ciphertext || tag in one allocation: GCM appends
	// to the nonce in place instead of copying it into a buffer of its own.
	nonce := make([]byte, aead.NonceSize(), aead.NonceSize()+len(plaintext)+aead.Overhead())
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, fmt.Errorf("sgx: seal nonce: %w", err)
	}
	return aead.Seal(nonce, nonce, plaintext, additionalData), nil
}

// Unseal reverses Seal. It returns ErrUnseal when the blob was sealed by a
// different enclave identity or platform, or was modified.
func (e *Enclave) Unseal(blob, additionalData []byte) ([]byte, error) {
	if err := e.live(); err != nil {
		return nil, err
	}
	aead := e.seal
	if len(blob) < aead.NonceSize() {
		return nil, fmt.Errorf("%w: blob too short", ErrUnseal)
	}
	nonce, ct := blob[:aead.NonceSize()], blob[aead.NonceSize():]
	plain, err := aead.Open(nil, nonce, ct, additionalData)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnseal, err)
	}
	return plain, nil
}

// SealBackup seals data with name as its additional data and files the
// blob on the host's disk under the enclave's measurement, replacing any
// earlier file of that name. Every enclave of one identity on the platform
// — a restarted one, or a replica of the same image — reads and writes the
// same files: the replica a key is provisioned to seals it once, and any
// enclave of the identity whose key store later misses that name opens
// the file in place (Thread.LoadSecret).
func (e *Enclave) SealBackup(name string, data []byte) error {
	blob, err := e.Seal(data, []byte(name))
	if err != nil {
		return err
	}
	p := e.platform
	p.mu.Lock()
	defer p.mu.Unlock()
	files := p.backups[e.measurement]
	if files == nil {
		files = make(map[string][]byte)
		p.backups[e.measurement] = files
	}
	files[name] = blob
	return nil
}

// Backups lists the sealed files the host keeps for the enclave's
// measurement, blob by name: opaque to the host and to any enclave of
// another identity or platform (Unseal with the name as additional data).
// The map is a copy; the blobs are shared and read-only.
func (e *Enclave) Backups() map[string][]byte {
	p := e.platform
	p.mu.Lock()
	defer p.mu.Unlock()
	return maps.Clone(p.backups[e.measurement])
}
