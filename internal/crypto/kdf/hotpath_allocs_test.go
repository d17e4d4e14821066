//go:build !race

package kdf

import (
	"bytes"
	"testing"
)

// TestHotPathAllocs holds every derivation of the registration path to
// zero heap allocations into a caller-owned dst: the HMAC state and the
// input scratch are pooled. sync.Pool drops items at random under the
// race detector, so this file builds only without -race; make ci runs it
// in its no-race go test run.
func TestHotPathAllocs(t *testing.T) {
	const snn, supi = "5G:mnc001.mcc001.3gppnetwork.org", "imsi-001010000000001"
	k32, k16 := bytes.Repeat([]byte{0x42}, 32), bytes.Repeat([]byte{0x17}, 16)
	params, sqnXorAK, res := []byte(snn), make([]byte, 6), make([]byte, 8)
	var dst32 [32]byte
	var dst16 [16]byte
	for _, row := range []struct {
		name string
		run  func() error
	}{
		{"GenericInto", func() error { GenericInto(dst32[:], k32, fcKSEAF, params); return nil }},
		{"KAUSFInto", func() error { return KAUSFInto(dst32[:], k16, k16, snn, sqnXorAK) }},
		{"ResStarInto", func() error { return ResStarInto(dst16[:], k16, k16, snn, k16, res) }},
		{"HXResStarInto", func() error { return HXResStarInto(dst16[:], k16, k16) }},
		{"KSEAFInto", func() error { return KSEAFInto(dst32[:], k32, snn) }},
		{"KAMFInto", func() error { return KAMFInto(dst32[:], k32, supi, nil) }},
		{"AlgorithmKeyInto", func() error { return AlgorithmKeyInto(dst16[:], k32, AlgoNASIntegrity, 2) }},
	} {
		var err error
		n := testing.AllocsPerRun(100, func() {
			if rerr := row.run(); rerr != nil {
				err = rerr
			}
		})
		if err != nil || n != 0 {
			t.Errorf("%s: %v allocs, err %v; want 0, nil", row.name, n, err)
		}
	}
}
