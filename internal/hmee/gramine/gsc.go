package gramine

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sort"
	"strings"

	"shield5g/internal/hmee/sgx"
)

// ContainerImage describes a Docker image to be transformed by GSC: its
// name and the files in its root filesystem.
type ContainerImage struct {
	Name  string
	Files []ImageFile
}

// ImageFile is one file in a container image.
type ImageFile struct {
	Path string
	Size uint64
}

// excludedPrefixes are the platform-specific directories GSC leaves out of
// the trusted-files list (per the paper's §V-B1: /boot, /dev, /etc/mtab,
// /proc, /sys).
var excludedPrefixes = []string{"/boot/", "/dev/", "/etc/mtab", "/proc/", "/sys/"}

func excluded(path string) bool {
	for _, p := range excludedPrefixes {
		if strings.HasPrefix(path, p) || path == strings.TrimSuffix(p, "/") {
			return true
		}
	}
	return false
}

// ShieldedImage is the output of the GSC build: the original image, the
// completed manifest with the image's files appended to the trusted list,
// and the signer's SIGSTRUCT-style signature over the enclave measurement.
type ShieldedImage struct {
	Image     ContainerImage
	Manifest  Manifest
	Signer    ed25519.PublicKey
	Signature []byte
}

// BuildShielded transforms a container image into a shielded image the way
// `gsc build` plus `gsc sign-image` do: append the image's measurable files
// to the manifest's trusted list, then sign the resulting measurement with the
// user-provided key.
func BuildShielded(img ContainerImage, manifest *Manifest, signKey ed25519.PrivateKey) (*ShieldedImage, error) {
	if manifest == nil {
		return nil, errors.New("gramine: nil manifest")
	}
	if err := manifest.Validate(); err != nil {
		return nil, err
	}
	if len(signKey) != ed25519.PrivateKeySize {
		return nil, fmt.Errorf("gramine: sign key length %d, want %d", len(signKey), ed25519.PrivateKeySize)
	}
	if img.Name == "" {
		return nil, errors.New("gramine: image name missing")
	}

	out := *manifest
	out.TrustedFiles = append([]TrustedFile(nil), manifest.TrustedFiles...)
	// GSC appends the majority of the root directory to the trusted list
	// (a Gramine-team generality decision the paper calls out as a driver
	// of enclave load time).
	for _, f := range img.Files {
		if excluded(f.Path) {
			continue
		}
		out.TrustedFiles = append(out.TrustedFiles, TrustedFile{URI: "file:" + f.Path, Size: f.Size})
	}
	sort.Slice(out.TrustedFiles, func(i, j int) bool { return out.TrustedFiles[i].URI < out.TrustedFiles[j].URI })

	si := &ShieldedImage{
		Image:    img,
		Manifest: out,
		Signer:   signKey.Public().(ed25519.PublicKey),
	}
	si.Signature = ed25519.Sign(signKey, si.measurement())
	return si, nil
}

// measurement is the MRENCLAVE the image's enclave will report, which the
// signature covers the way SIGSTRUCT covers ENCLAVEHASH.
func (si *ShieldedImage) measurement() []byte {
	m := sgx.Measure(si.EnclaveConfig())
	return m[:]
}

// Verify checks the image signature against its embedded signer key.
func (si *ShieldedImage) Verify() error {
	if len(si.Signer) != ed25519.PublicKeySize {
		return errors.New("gramine: shielded image has no signer")
	}
	if !ed25519.Verify(si.Signer, si.measurement(), si.Signature) {
		return errors.New("gramine: shielded image signature invalid")
	}
	return nil
}

// EnclaveConfig translates the shielded image into the simulator's enclave
// build parameters.
func (si *ShieldedImage) EnclaveConfig() sgx.EnclaveConfig {
	files := make([]sgx.MeasuredFile, 0, len(si.Manifest.TrustedFiles))
	for _, f := range si.Manifest.TrustedFiles {
		files = append(files, sgx.MeasuredFile{Path: f.URI, Size: f.Size})
	}
	return sgx.EnclaveConfig{
		Name:         si.Image.Name,
		SizeBytes:    si.Manifest.EnclaveSizeBytes,
		MaxThreads:   si.Manifest.MaxThreads,
		Preheat:      si.Manifest.PreheatEnclave,
		Switchless:   si.Manifest.SwitchlessECalls,
		TrustedFiles: files,
	}
}
