// Attestation and sealing: the paper's Key Issues 13 and 27. Instead of
// baking plaintext credentials into NF container images, the operator
// seals them to the eUDM enclave's measurement and releases them only
// after verifying hardware-rooted attestation evidence against the
// measurement of the image it built — so a stolen image (or a tampered
// one) yields nothing.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"

	"shield5g"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "attestation: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	tb, err := shield5g.NewTestbed(ctx, shield5g.SliceConfig{Isolation: shield5g.SGX, Seed: 11})
	if err != nil {
		return err
	}
	defer tb.Close()

	eudm := tb.Slice.Modules[shield5g.EUDM].Enclave()
	eausf := tb.Slice.Modules[shield5g.EAUSF].Enclave()
	root := tb.Slice.Platform.QuotingPublicKey()
	reference := tb.Slice.Reference(shield5g.EUDM)

	// 1. Remote attestation: the enclave proves its identity to the
	//    operator's provisioning service, which checks it against the
	//    measurement of the image the operator built, never against what
	//    the enclave says about itself.
	var nonce [64]byte
	copy(nonce[:], "operator-provisioning-nonce-1")
	ev, err := eudm.GenerateQuote(nonce)
	if err != nil {
		return err
	}
	if err := ev.Verify(root, reference, nonce); err != nil {
		return fmt.Errorf("eUDM evidence: %w", err)
	}
	fmt.Printf("attestation verified: eUDM measurement %x... matches the slice's reference\n", ev.Measurement[:8])

	// Genuine evidence from another module is not the eUDM's.
	other, err := eausf.GenerateQuote(nonce)
	if err != nil {
		return err
	}
	err = other.Verify(root, reference, nonce)
	if err == nil {
		return errors.New("eAUSF evidence verified as the eUDM's")
	}
	fmt.Printf("eAUSF evidence rejected as the eUDM's: %v\n", err)

	// 2. Secret sealing: the home-network private key is sealed to the
	//    verified enclave identity and shipped with the image.
	secret := tb.Slice.HomeNetworkKey.Bytes()
	sealed, err := eudm.Seal(secret, []byte("hn-key-v1"))
	if err != nil {
		return err
	}
	fmt.Printf("home-network key sealed to eUDM measurement (%d-byte blob)\n", len(sealed))

	// Only the same enclave identity can unseal.
	plain, err := eudm.Unseal(sealed, []byte("hn-key-v1"))
	if err != nil {
		return err
	}
	fmt.Printf("eUDM unsealed the key: %d bytes recovered\n", len(plain))

	if _, err := eausf.Unseal(sealed, []byte("hn-key-v1")); !errors.Is(err, shield5g.ErrUnseal) {
		return fmt.Errorf("eAUSF unseal should fail with ErrUnseal, got %v", err)
	}
	fmt.Println("eAUSF (different measurement) cannot unseal: KI 27 mitigated")
	return nil
}
