package suci

import (
	"bytes"
	"strings"
	"testing"

	"shield5g/internal/sbi/codec"
)

// constReader is deterministic entropy: Conceal draws its ephemeral key
// from it, so a SUCI concealed to fuzzHomeKey is the same bytes every run.
type constReader byte

func (c constReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(c)
	}
	return len(p), nil
}

// fuzzHomeKey is a fixed home-network key, so the valid SUCIs in the
// committed corpus (testdata/fuzz/FuzzDeconceal) stay valid.
func fuzzHomeKey(t testing.TB) *HomeNetworkKey {
	t.Helper()
	k, err := HomeNetworkKeyFromBytes(bytes.Repeat([]byte{0x21}, 32), 1)
	if err != nil {
		t.Fatalf("HomeNetworkKeyFromBytes: %v", err)
	}
	return k
}

// homeOf reports whether supi is a valid SUPI of the home network mcc, mnc:
// its text is theirs followed by an MSIN Validate accepts.
func homeOf(supi codec.SUPI, mcc, mnc string) bool {
	text, prefix := supi.String(), "imsi-"+mcc+mnc
	return strings.HasPrefix(text, prefix) && SUPI{MCC: mcc, MNC: mnc, MSIN: text[len(prefix):]}.Validate() == nil
}

// FuzzDeconceal feeds the home network's de-concealment, the core's most
// expensive handling of input an attacker controls, arbitrary SUCIs: any
// scheme, key ID, MCC, MNC, routing indicator and scheme output. Deconceal
// must never panic, never write to the SUCI it reads, and return either an
// error and the zero SUPI or a SUPI that passes Validate under the SUCI's
// clear-text MCC and MNC. Each input also names one byte and a non-zero
// XOR for it; that change to a valid Profile A output must fail.
func FuzzDeconceal(f *testing.F) {
	hn := fuzzHomeKey(f)
	supi := SUPI{MCC: "001", MNC: "01", MSIN: "0000000001"}
	valid, err := Conceal(constReader(0x42), supi, "0000", hn.PublicKey(), hn.ID)
	if err != nil {
		f.Fatalf("Conceal: %v", err)
	}
	// Unless the valid SUCI de-conceals, every property below holds
	// vacuously.
	if got, err := hn.Deconceal(valid); err != nil || got != valueOf(f, supi) {
		f.Fatalf("Deconceal(valid) = %v, %v; want %+v", got, err, supi)
	}
	out := valid.SchemeOutput
	for i, s := range []SUCI{
		*valid,
		{MCC: "00a", MNC: "01", RoutingIndicator: "0000", Scheme: SchemeProfileA, HomeKeyID: hn.ID, SchemeOutput: out},
		{MCC: "001", MNC: "01", RoutingIndicator: "0000", Scheme: SchemeProfileA, HomeKeyID: hn.ID + 1, SchemeOutput: out},
		{MCC: "001", MNC: "01", RoutingIndicator: "0000", Scheme: SchemeProfileB, HomeKeyID: hn.ID, SchemeOutput: out},
		{MCC: "001", MNC: "01", RoutingIndicator: "0000", Scheme: SchemeNull, SchemeOutput: []byte("0000000001")},
		{MCC: "001", MNC: "01", RoutingIndicator: "0000", Scheme: SchemeProfileA, HomeKeyID: hn.ID, SchemeOutput: out[:ephemeralKeyLen+tagLen]},
		{MCC: "001", MNC: "01", RoutingIndicator: "0000", Scheme: SchemeProfileA, HomeKeyID: hn.ID, SchemeOutput: make([]byte, len(out))},
	} {
		// The seeds' mutations walk the valid output (32-byte ephemeral
		// key, 10-byte ciphertext, 8-byte tag), starting with the key's top
		// bit, which X25519 ignores: only the KDF's SharedInfo catches it.
		pos := []uint16{31, 0, 15, 32, 41, 42, 49}[i]
		f.Add(s.Scheme, s.HomeKeyID, s.MCC, s.MNC, s.RoutingIndicator, s.SchemeOutput, pos, byte(0x80))
	}
	f.Fuzz(func(t *testing.T, scheme, keyID byte, mcc, mnc, ri string, schemeOutput []byte, pos uint16, delta byte) {
		in := append([]byte(nil), schemeOutput...)
		supi, err := hn.Deconceal(&SUCI{MCC: mcc, MNC: mnc, RoutingIndicator: ri, Scheme: scheme, HomeKeyID: keyID, SchemeOutput: in})
		switch {
		case !bytes.Equal(in, schemeOutput):
			t.Fatalf("Deconceal wrote to the scheme output: %x, was %x", in, schemeOutput)
		case err != nil && supi != (codec.SUPI{}):
			t.Fatalf("Deconceal returned %v alongside error %v", supi, err)
		case err == nil && !homeOf(supi, mcc, mnc):
			t.Fatalf("Deconceal returned %v for MCC %q MNC %q", supi, mcc, mnc)
		}

		if delta == 0 {
			return
		}
		mutated := *valid
		mutated.SchemeOutput = append([]byte(nil), out...)
		i := int(pos) % len(out)
		mutated.SchemeOutput[i] ^= delta
		if supi, err := hn.Deconceal(&mutated); err == nil {
			t.Fatalf("scheme output byte %d ^ %#02x de-concealed to %+v", i, delta, supi)
		}
	})
}
